package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"soemt/internal/core"
	"soemt/internal/experiments"
	"soemt/internal/obs"
	"soemt/internal/sim"
	"soemt/internal/workload"
)

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct {
	name, unit, better string
}

// perLayer lists every per-layer metric, in BENCHMARK.json order. A
// workload in which a layer does no work reports 0 for it.
var perLayer = []layerMetric{
	{"workload.at_ns", "ns", "lower"},
	{"workload.cpu_share", "fraction", "lower"},
	{"mem.l1_hit_ns", "ns", "lower"},
	{"mem.l2_hit_ns", "ns", "lower"},
	{"mem.miss_ns", "ns", "lower"},
	{"mem.translate_ns", "ns", "lower"},
	{"mem.l1d_miss_ratio", "fraction", "lower"},
	{"mem.l2_miss_ratio", "fraction", "lower"},
	{"mem.dtlb_miss_ratio", "fraction", "lower"},
	{"mem.cpu_share", "fraction", "lower"},
	{"branch.resolve_ns", "ns", "lower"},
	{"branch.mispredict_ratio", "fraction", "lower"},
	{"branch.cpu_share", "fraction", "lower"},
	{"pipeline.cycle_ns", "ns", "lower"},
	{"pipeline.idlescan_ns", "ns", "lower"},
	{"pipeline.squash_ratio", "fraction", "lower"},
	{"pipeline.rob_occupancy", "entries", "higher"},
	{"pipeline.cpu_share", "fraction", "lower"},
	{"core.busy_ns_per_cycle", "ns", "lower"},
	{"core.idle_ns_per_kcycle", "ns", "lower"},
	{"core.skip_ratio", "fraction", "higher"},
	{"core.skip_windows", "count", "higher"},
	{"core.switch_miss", "count", "lower"},
	{"core.switch_forced", "count", "lower"},
	{"core.cpu_share", "fraction", "lower"},
	{"sim.build_ms", "ms", "lower"},
	{"sim.cache_warm_ms", "ms", "lower"},
	{"sim.timing_warm_ms", "ms", "lower"},
	{"sim.measure_ms", "ms", "lower"},
	{"sim.cache_warm_share", "fraction", "lower"},
	{"sim.allocs_per_run", "count", "lower"},
	{"sim.alloc_kb_per_run", "KiB", "lower"},
	{"experiments.fingerprint_us", "us", "lower"},
	{"experiments.mem_hit_us", "us", "lower"},
	{"experiments.disk_hit_us", "us", "lower"},
	{"experiments.runs_started", "count", "lower"},
	{"experiments.hit_ratio", "fraction", "higher"},
	{"experiments.pool_busy_ratio", "fraction", "higher"},
	{"experiments.cpu_share", "fraction", "lower"},
	{"serve.admit_ms", "ms", "lower"},
	{"serve.queue_wait_ms", "ms", "lower"},
	{"serve.exec_warm_ms", "ms", "lower"},
	{"serve.exec_cold_ms", "ms", "lower"},
	{"serve.batch_size", "jobs", "higher"},
	{"serve.coalesced", "count", "higher"},
	{"serve.rejected", "count", "lower"},
	{"serve.cpu_share", "fraction", "lower"},
	{"model.fast_answer_us", "us", "lower"},
	{"model.cpu_share", "fraction", "lower"},
	{"proxy.hedge_ratio", "fraction", "lower"},
	{"proxy.retry_ratio", "fraction", "lower"},
	{"proxy.shed", "count", "lower"},
	{"cluster.peer_fill_hits", "count", "higher"},
	{"cluster.breaker_trips", "count", "lower"},
	{"proxy.cpu_share", "fraction", "lower"},
	{"runtime.cpu_share", "fraction", "lower"},
	{"http.cpu_share", "fraction", "lower"},
	{"bench.trace_overhead", "ratio", "lower"},
	{"bench.gen_lag_p50_ms", "ms", "lower"},
	{"bench.gen_lag_max_ms", "ms", "lower"},
}

// layers collects per-layer values; finish copies them into the
// report, with 0 for every metric the workload did not exercise.
type layers map[string]float64

func (l layers) finish(rep *report) {
	for _, m := range perLayer {
		rep.set(m.name, m.unit, l[m.name])
	}
	names := make([]string, 0, len(l))
	for n := range l {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		rep.linef("  %-30s %14.6g", n, l[n])
	}
}

// addShares records each layer's share of the traced run's CPU
// samples.
func (l layers) addShares(byPkg map[string]float64) {
	for layer, v := range layerShares(byPkg) {
		l[layer+".cpu_share"] = v
	}
}

// addReplica records phase times, slice costs and the layers' own
// counters from replica runs, averaged per run.
func (l layers) addReplica(sts []replicaStats, results []*sim.Result) {
	n := float64(len(sts))
	var build, cw, tw, ms_, busyT, idleT time.Duration
	var busyC, idleC, skipW, skipC, total uint64
	var l1d, l2, dtlb, mis, sq, rob, swMiss, swForced float64
	for i, st := range sts {
		build += st.build
		cw += st.cacheWarm
		tw += st.timingWarm
		ms_ += st.measure
		busyT += st.busyTime
		idleT += st.idleTime
		busyC += st.busyCycles
		idleC += st.idleCycles
		skipW += st.skipWindows
		skipC += st.skipCycles
		total += st.totalCycles
		l1d += st.l1dMiss
		l2 += st.l2Miss
		dtlb += st.dtlbMiss
		mis += st.mispredict
		sq += st.squashRatio
		rob += st.robOcc
		swMiss += float64(results[i].Switches.Miss + results[i].Switches.L1Miss)
		swForced += float64(results[i].Switches.Forced())
	}
	l["sim.build_ms"] = ms(build) / n
	l["sim.cache_warm_ms"] = ms(cw) / n
	l["sim.timing_warm_ms"] = ms(tw) / n
	l["sim.measure_ms"] = ms(ms_) / n
	l["sim.cache_warm_share"] = cacheWarmShare(sts)
	l["core.busy_ns_per_cycle"] = ratio(float64(busyT), float64(busyC))
	l["core.idle_ns_per_kcycle"] = 1000 * ratio(float64(idleT), float64(idleC))
	l["core.skip_ratio"] = ratio(float64(skipC), float64(total))
	l["core.skip_windows"] = float64(skipW) / n
	l["core.switch_miss"] = swMiss / n
	l["core.switch_forced"] = swForced / n
	l["mem.l1d_miss_ratio"] = l1d / n
	l["mem.l2_miss_ratio"] = l2 / n
	l["mem.dtlb_miss_ratio"] = dtlb / n
	l["branch.mispredict_ratio"] = mis / n
	l["pipeline.squash_ratio"] = sq / n
	l["pipeline.rob_occupancy"] = rob / n
}

// cacheWarmShare is functional cache-warm's share of the replica runs'
// summed phase times.
func cacheWarmShare(sts []replicaStats) float64 {
	var cw, all time.Duration
	for _, st := range sts {
		cw += st.cacheWarm
		all += st.build + st.cacheWarm + st.timingWarm + st.measure
	}
	return ratio(float64(cw), float64(all))
}

// addReplay records the per-op costs of replaying specs' inputs.
func (l layers) addReplay(specs []sim.Spec, instrs, cycles uint64, sp *spans, parent int) error {
	r := newReplayer(nil)
	id := sp.begin("replay", parent, "")
	defer sp.end(id)
	for _, s := range specs {
		if err := r.replaySpec(s, instrs, cycles); err != nil {
			return err
		}
	}
	for k, v := range r.medians() {
		l[k] = v
	}
	return nil
}

// addAllocs records heap allocations per full-protocol run of spec.
func (l layers) addAllocs(spec sim.Spec) error {
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := sim.RunContext(context.Background(), spec); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	l["sim.allocs_per_run"] = float64(after.Mallocs-before.Mallocs) / runs
	l["sim.alloc_kb_per_run"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / runs
	return nil
}

// addCacheOps times the experiments layer's own calls on specs: the
// fingerprint, a memory-layer hit and a disk-layer hit (a fresh cache
// over a store under dir).
func (l layers) addCacheOps(specs []sim.Spec, res *sim.Result, dir string) error {
	store, err := os.MkdirTemp(dir, "cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(store)
	ctx := context.Background()
	var fps, memHits, diskHits []float64
	c, err := experiments.NewCache(store)
	if err != nil {
		return err
	}
	// Each call repeats so the first use of a code path (JSON type
	// caches, file system lookups) does not set the median.
	const reps = 20
	for _, s := range specs {
		key, err := experiments.Fingerprint(s)
		if err != nil {
			return err
		}
		if err := c.Put(key, res); err != nil {
			return err
		}
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			if _, err := experiments.Fingerprint(s); err != nil {
				return err
			}
			fps = append(fps, float64(time.Since(t0)))
			t0 = time.Now()
			if _, err := c.RunSpecContext(ctx, s); err != nil {
				return err
			}
			memHits = append(memHits, float64(time.Since(t0)))
			fresh, err := experiments.NewCache(store)
			if err != nil {
				return err
			}
			t0 = time.Now()
			if _, ok := fresh.Get(key); !ok {
				return fmt.Errorf("disk hit: %s not found in the store", key[:12])
			}
			diskHits = append(diskHits, float64(time.Since(t0)))
		}
	}
	l["experiments.fingerprint_us"] = median(fps) / 1e3
	l["experiments.mem_hit_us"] = median(memHits) / 1e3
	l["experiments.disk_hit_us"] = median(diskHits) / 1e3
	return nil
}

// writeSpans writes the traced run's spans as Chrome trace JSON.
func writeSpans(cfg runConfig, name string, sp *spans) error {
	return sp.writeChrome(filepath.Join(cfg.out, name+".trace.json"))
}

// checkFidelity proves the replica is the machine sim.RunContext runs:
// the same Result digest, and the same idle-skip windows and cycles
// as a RunContext run with an observer attached (so both used the
// same engine).
func checkFidelity(spec sim.Spec, res *sim.Result, st replicaStats) error {
	reg := obs.NewRegistry()
	observed := spec
	observed.Obs = &obs.Observer{Metrics: reg}
	ref, err := sim.RunContext(context.Background(), observed)
	if err != nil {
		return err
	}
	want, err := resultDigest(ref)
	if err != nil {
		return err
	}
	got, err := resultDigest(res)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("replica fidelity: result digest %s, sim.RunContext %s", got[:12], want[:12])
	}
	w, c := reg.Counter("core.skip.windows").Load(), reg.Counter("core.skip.cycles").Load()
	if w != st.skipWindows || c != st.skipCycles {
		return fmt.Errorf("replica fidelity: skip windows/cycles %d/%d, sim.RunContext %d/%d",
			st.skipWindows, st.skipCycles, w, c)
	}
	return nil
}

// timeRuns times sequential RunContext calls of spec for about d and
// returns the walls in seconds, with a span per call under parent.
// Each result goes to chk under key.
func timeRuns(spec sim.Spec, key string, chk *checker, d time.Duration, sp *spans, parent int) ([]float64, error) {
	var walls []float64
	for end := time.Now().Add(d); len(walls) < 3 || time.Now().Before(end); {
		id := sp.begin("sim.RunContext", parent, "")
		t0 := time.Now()
		res, err := sim.RunContext(context.Background(), spec)
		walls = append(walls, time.Since(t0).Seconds())
		sp.end(id)
		if err != nil {
			return nil, err
		}
		dg, err := resultDigest(res)
		if err != nil {
			return nil, err
		}
		chk.observe(key, dg, func() (string, error) { return reference(spec) })
	}
	return walls, nil
}

// simPairTrace is the traced run of busy-pair and stall-pair.
func simPairTrace(cfg runConfig, name string, spec sim.Spec) (*report, error) {
	l := layers{}
	rep := newReport()
	key, err := specKey(spec)
	if err != nil {
		return nil, err
	}
	chk, err := newChecker()
	if err != nil {
		return nil, err
	}
	slice := time.Duration(0.25 * float64(cfg.duration()))
	untraced, err := timeRuns(spec, key, chk, slice, nil, -1)
	if err != nil {
		return nil, err
	}
	sp := newSpans()
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	root := sp.begin(name, -1, "")
	traced, err := timeRuns(spec, key, chk, slice, sp, root)
	if err != nil {
		pprofStop(prof)
		return nil, err
	}
	rid := sp.begin("replica", root, "")
	res, st, err := runReplica(spec, sp, rid)
	sp.end(rid)
	if err == nil {
		err = checkFidelity(spec, res, st)
	}
	if err != nil {
		pprofStop(prof)
		return nil, err
	}
	rep.linef("  replica fidelity: result digest and skip windows/cycles (%d/%d) match sim.RunContext", st.skipWindows, st.skipCycles)
	l.addReplica([]replicaStats{st}, []*sim.Result{res})
	if err := l.addReplay([]sim.Spec{spec}, replayInstrs, replayCycles, sp, root); err != nil {
		pprofStop(prof)
		return nil, err
	}
	sp.end(root)
	shares, err := prof.stop(cfg.out, name)
	if err != nil {
		return nil, err
	}
	l.addShares(shares)
	if err := l.addAllocs(spec); err != nil {
		return nil, err
	}
	l["bench.trace_overhead"] = median(traced) / median(untraced)
	rep.attempted = len(untraced) + len(traced)
	if err := finishCheck(cfg, rep, chk); err != nil {
		return nil, err
	}
	l.finish(rep)
	return rep, writeSpans(cfg, name, sp)
}

// pprofStop ends a profile on an error path; the profile is discarded.
func pprofStop(*profiler) { pprof.StopCPUProfile() }

// sweepSpecs is a cross-section of the matrix at scale: every pair at
// F = 1 and every single-thread reference, perturbed.
func sweepSpecs(seed uint64, scale sim.Scale) []sim.Spec {
	opts := sweepOptions()
	opts.Scale = scale
	var out []sim.Spec
	seen := map[string]bool{}
	for _, p := range experiments.Pairs() {
		s := pairSpec(core.Fairness{F: 1}, opts.Scale, p.A, p.B)
		if p.Same() {
			s.Threads[1].StartSeq = opts.SameOffset
		}
		out = append(out, perturbSpec(s, seed))
		for _, n := range []string{p.A, p.B} {
			if seen[n] {
				continue
			}
			seen[n] = true
			m := opts.Machine
			m.Controller.Policy = core.EventOnly{}
			st := sim.Spec{Machine: m, Scale: opts.Scale, Threads: []sim.ThreadSpec{{Profile: workload.MustByName(n)}}}
			out = append(out, perturbSpec(st, seed))
		}
	}
	return out
}

// sweepTrace is the traced run of fig-sweep.
func sweepTrace(cfg runConfig) (*report, error) {
	ctx := context.Background()
	l := layers{}
	rep := newReport()
	chk, err := newChecker()
	if err != nil {
		return nil, err
	}
	seed := sweepSeed(cfg.seed, 0)
	ref := func() (string, error) { return sweepReference(ctx, seed) }
	setProcs(sweepWorkers) // as in the end-to-end run
	untraced, err := runSweep(ctx, seed, "", nil, -1)
	if err != nil {
		return nil, err
	}
	chk.observe(untraced.key, untraced.digest, ref)
	sp := newSpans()
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	root := sp.begin("fig-sweep", -1, "")
	sw := sp.begin("experiments.RunAllContext", root, "")
	traced, err := runSweep(ctx, seed, "", sp, sw)
	sp.end(sw)
	setProcs(1)
	if err != nil {
		pprofStop(prof)
		return nil, err
	}
	chk.observe(traced.key, traced.digest, ref)
	m := traced.runner.Metrics()
	lookups := float64(m.CacheHits() + m.Misses)
	l["experiments.runs_started"] = float64(m.RunsStarted)
	l["experiments.hit_ratio"] = ratio(float64(m.CacheHits()), lookups)
	var simWall time.Duration
	for _, d := range traced.sims {
		simWall += d
	}
	l["experiments.pool_busy_ratio"] = ratio(float64(simWall), float64(sweepWorkers)*float64(traced.wall))

	specs := sweepSpecs(seed, sweepOptions().Scale)
	var sts []replicaStats
	var results []*sim.Result
	rid := sp.begin("replica", root, "")
	for _, s := range specs {
		res, st, err := runReplica(s, sp, rid)
		if err != nil {
			pprofStop(prof)
			return nil, err
		}
		sts = append(sts, st)
		results = append(results, res)
	}
	sp.end(rid)
	l.addReplica(sts, results)
	if err := l.addReplay(specs, replayInstrs/8, replayCycles/8, sp, root); err != nil {
		pprofStop(prof)
		return nil, err
	}
	sp.end(root)
	shares, err := prof.stop(cfg.out, "fig-sweep")
	if err != nil {
		return nil, err
	}
	l.addShares(shares)
	// Phase shares depend on the scale, and whether a warmed-cache
	// snapshot pays is judged at the tiny scale users run, not at the
	// sweep's short one: the reported share comes from the tiny
	// cross-section, untraced, and both are printed.
	var tiny []replicaStats
	tinyStart := time.Now()
	for _, s := range sweepSpecs(seed, tinyScale) {
		_, st, err := runReplica(s, nil, -1)
		if err != nil {
			return nil, err
		}
		tiny = append(tiny, st)
	}
	rep.linef("  cache-warm share of a run: %.4f at the sweep's scale, %.4f at tiny scale (%d runs in %.1f s; reported as sim.cache_warm_share)",
		l["sim.cache_warm_share"], cacheWarmShare(tiny), len(tiny), time.Since(tinyStart).Seconds())
	l["sim.cache_warm_share"] = cacheWarmShare(tiny)
	if err := l.addCacheOps(specs, results[0], cfg.out); err != nil {
		return nil, err
	}
	if err := l.addAllocs(specs[0]); err != nil {
		return nil, err
	}
	l["bench.trace_overhead"] = traced.wall.Seconds() / untraced.wall.Seconds()
	rep.attempted = 2
	if err := finishCheck(cfg, rep, chk); err != nil {
		return nil, err
	}
	l.finish(rep)
	return rep, writeSpans(cfg, "fig-sweep", sp)
}

// serveTrace is the traced run of serve-mix.
func serveTrace(cfg runConfig) (*report, error) {
	l := layers{}
	rep := newReport()
	sp := newSpans()
	var prof *profiler
	onReady := func() error {
		var err error
		prof, err = startProfile()
		return err
	}
	res, chk, err := serveMixWith(cfg, sp, onReady)
	if err != nil {
		if prof != nil {
			pprofStop(prof)
		}
		return nil, err
	}
	st := res.st
	var regs []*obs.Registry
	for _, n := range st.nodes {
		regs = append(regs, n.Observability())
	}
	l["serve.admit_ms"] = 1e3 * median(res.admits)
	l["serve.queue_wait_ms"] = 1e3 * median(append(append([]float64(nil), res.queueWarm...), res.queueCold...))
	l["serve.exec_warm_ms"] = 1e3 * median(res.execWarm)
	l["serve.exec_cold_ms"] = 1e3 * median(res.execCold)
	l["serve.batch_size"] = ratio(registryValue("serve.jobs_accepted", regs...), registryValue("serve.batches", regs...))
	l["serve.coalesced"] = registryValue("serve.coalesced", regs...)
	l["serve.rejected"] = registryValue("serve.jobs_rejected", regs...)
	computed := registryValue("serve.fast.answers", regs...) - registryValue("serve.fast.cache_hits", regs...)
	l["model.fast_answer_us"] = ratio(registryValue("serve.fast.latency_us_total", regs...), computed)
	reqs := registryValue("proxy.requests", st.proxyReg)
	l["proxy.hedge_ratio"] = ratio(registryValue("proxy.hedges", st.proxyReg), reqs)
	l["proxy.retry_ratio"] = ratio(registryValue("proxy.retries", st.proxyReg), reqs)
	l["proxy.shed"] = registryValue("proxy.shed", st.proxyReg)
	l["cluster.peer_fill_hits"] = registryValue("cluster.peer_fill_hits", regs...)
	l["cluster.breaker_trips"] = registryValue("cluster.breaker_trips", append(regs, st.proxyReg)...)
	hits := registryValue("cache.mem_hits", regs...) + registryValue("cache.disk_hits", regs...) + registryValue("cache.dedup_hits", regs...)
	l["experiments.runs_started"] = registryValue("runner.runs_started", regs...)
	l["experiments.hit_ratio"] = ratio(hits, hits+registryValue("cache.misses", regs...))
	l["experiments.pool_busy_ratio"] = ratio(sum(res.execCold)+sum(res.execWarm), float64(len(st.nodes))*res.openSecs)
	l["bench.gen_lag_p50_ms"] = 1e3 * median(res.lags)
	l["bench.gen_lag_max_ms"] = 1e3 * quantile(res.lags, 1)

	// The simulation layers do their serve-mix work in exact-cold
	// runs: replay the first cold request's spec.
	cold, err := firstColdSpec(res.reqs)
	if err != nil {
		pprofStop(prof)
		st.close()
		return nil, err
	}
	root := sp.begin("cold-spec", -1, "")
	rr, rst, err := runReplica(cold, sp, root)
	if err == nil {
		l.addReplica([]replicaStats{rst}, []*sim.Result{rr})
		err = l.addReplay([]sim.Spec{cold}, replayInstrs, replayCycles, sp, root)
	}
	sp.end(root)
	if err != nil {
		pprofStop(prof)
		st.close()
		return nil, err
	}
	// Tracing overhead: half-second closed loops with and without
	// spans, alternated on one P with every fast answer cached, so
	// drift moves both alike. The profile runs throughout; its 100 Hz
	// sampling is not part of the reading.
	ctx := context.Background()
	var traced, untraced, loopFailed int
	for i := 0; i < 4; i++ {
		cl := sp.begin("closed-loop.traced", -1, "")
		done, failed := st.closedLoop(ctx, res.reqs, time.Second/2, sp, cl)
		sp.end(cl)
		traced += done
		loopFailed += failed
		done, failed = st.closedLoop(ctx, res.reqs, time.Second/2, nil, -1)
		untraced += done
		loopFailed += failed
	}
	shares, err := prof.stop(cfg.out, "serve-mix")
	st.close()
	if err != nil {
		return nil, err
	}
	l["bench.trace_overhead"] = ratio(float64(untraced), float64(traced))
	l.addShares(shares)
	if err := l.addCacheOps([]sim.Spec{cold}, rr, cfg.out); err != nil {
		return nil, err
	}
	if err := l.addAllocs(cold); err != nil {
		return nil, err
	}
	rep.attempted = res.attempted + traced + untraced + loopFailed
	rep.failed = res.failed + loopFailed
	if err := finishCheck(cfg, rep, chk); err != nil {
		return nil, err
	}
	l.finish(rep)
	return rep, writeSpans(cfg, "serve-mix", sp)
}

// firstColdSpec returns the spec soeserve runs for the first exact-cold
// request of the schedule.
func firstColdSpec(reqs []mixRequest) (sim.Spec, error) {
	for _, r := range reqs {
		if r.tier == tierCold {
			return serveSpec(r.rq, r.fp)
		}
	}
	return sim.Spec{}, fmt.Errorf("schedule has no exact-cold request")
}
