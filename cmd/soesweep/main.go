// Command soesweep runs parameter-sensitivity sweeps on the SOE
// simulator: the fairness target F, the memory latency, the switch
// drain cost, the sampling period Δ, and thread-count scaling.
//
// Examples:
//
//	soesweep -sweep F -pair gcc:eon -points 9
//	soesweep -sweep misslat -pair gcc:eon -values 100,200,300,600
//	soesweep -sweep drain -pair swim:gzip -values 2,6,12,24,48
//	soesweep -sweep delta -pair gcc:eon -values 50000,250000,1000000
//	soesweep -sweep threads -bench swim -max 4
//	soesweep -sweep threads -threads gcc:eon:gzip:crafty -policy grouped-fairness -F 1
//
// Output is an aligned table; -csv switches to CSV for plotting.
// With -cache-dir every simulation result is persisted under a
// content-addressed fingerprint, so repeated sweeps over the same
// configuration are served from disk bit-identically; -metrics prints
// run and cache-hit counters to stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"soemt/internal/cli"
	"soemt/internal/core"
	"soemt/internal/experiments"
	"soemt/internal/sim"
	"soemt/internal/stats"
	"soemt/internal/workload"
)

func main() {
	var (
		sweep    = flag.String("sweep", "F", "parameter to sweep: F, misslat, drain, delta, threads")
		pair     = flag.String("pair", "gcc:eon", "two workloads a:b for pair sweeps")
		bench    = flag.String("bench", "swim", "workload for -sweep threads")
		threads  = flag.String("threads", "", "colon-separated mix for -sweep threads (prefix sweep N=2..len under -policy; overrides -bench)")
		policy   = flag.String("policy", "", "switch policy by name: "+strings.Join(core.PolicyNames(), ", ")+" (overrides -F selection)")
		points   = flag.Int("points", 9, "number of F points for -sweep F")
		values   = flag.String("values", "", "comma-separated values for misslat/drain/delta sweeps")
		maxThr   = flag.Int("max", 4, "maximum thread count for -sweep threads")
		fArg     = flag.Float64("F", 0.5, "fairness target for non-F sweeps (0 = event-only)")
		scale    = flag.String("scale", "tiny", "tiny, quick or paper")
		csv      = flag.Bool("csv", false, "emit CSV instead of a table")
		cacheDir = flag.String("cache-dir", "", "persistent result cache directory (content-addressed; see DESIGN.md)")
		metrics  = flag.Bool("metrics", false, "print run/cache metrics to stderr on exit")
		timeout  = flag.Duration("timeout", 0, "wall-clock budget per simulation, e.g. 90s (0 = unlimited); an exceeded run fails with a deadline error")
		beat     = flag.Duration("heartbeat", 0, "print a metrics heartbeat line to stderr at this interval during long runs, e.g. 30s (0 = off)")
	)
	flag.Parse()

	sc, err := sim.ScaleByName(*scale)
	if err != nil {
		fatal(err)
	}
	cache, err := experiments.NewCache(*cacheDir)
	if err != nil {
		fatal(err)
	}
	cache.Logf = func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "soesweep: "+format+"\n", args...)
	}

	// SIGINT/SIGTERM cancel the sweep between execution slices; the
	// rows completed so far are still flushed (marked incomplete), and
	// with -cache-dir a rerun resumes from the finished points.
	ctx, stop := cli.SignalContext()
	defer stop()
	stopBeat := cli.StartHeartbeat(ctx, "soesweep", *beat, func() string {
		return cache.Metrics().String()
	})
	defer stopBeat()
	cli.NoteResume("soesweep", cache)
	wd := sim.Watchdog{Timeout: *timeout}

	var tbl *stats.Table
	switch *sweep {
	case "F":
		tbl, err = sweepF(ctx, cache, wd, *pair, *points, sc)
	case "misslat":
		tbl, err = sweepScalar(ctx, cache, wd, *pair, "misslat", parseValues(*values, "100,200,300,600"), *fArg, sc)
	case "drain":
		tbl, err = sweepScalar(ctx, cache, wd, *pair, "drain", parseValues(*values, "2,6,12,24,48"), *fArg, sc)
	case "delta":
		tbl, err = sweepScalar(ctx, cache, wd, *pair, "delta", parseValues(*values, "50000,250000,1000000"), *fArg, sc)
	case "threads":
		if *threads != "" {
			tbl, err = sweepMix(ctx, cache, wd, *threads, *policy, *fArg, sc)
		} else {
			tbl, err = sweepThreads(ctx, cache, wd, *bench, *maxThr, *fArg, sc)
		}
	default:
		err = fmt.Errorf("unknown sweep %q", *sweep)
	}
	// Both exit paths funnel through flush, which emits the table at
	// most once: a SIGINT landing while the final flush is underway must
	// neither print a second copy of the table nor be swallowed into a
	// clean exit 0 (see TestInterruptDuringFinalFlush).
	flushed := false
	flush := func() {
		if tbl == nil || flushed {
			return
		}
		flushed = true
		if d, _ := time.ParseDuration(os.Getenv("SOESWEEP_TEST_FLUSH_DELAY")); d > 0 {
			// Test hook: announce the flush window and hold it open so the
			// acceptance test can land a signal inside it deterministically.
			fmt.Fprintln(os.Stderr, "soesweep: flushing")
			time.Sleep(d)
		}
		if *csv {
			fmt.Print(tbl.CSV())
		} else {
			tbl.WriteTo(os.Stdout)
		}
	}
	if err != nil {
		if cli.Interrupted(ctx, err) {
			flush()
			if *csv {
				fmt.Println("# interrupted: sweep incomplete")
			} else {
				fmt.Fprintln(os.Stderr, "soesweep: interrupted; partial sweep flushed — rerun with the same -cache-dir to resume")
			}
			cli.MarkInterrupted("soesweep", cache, "interrupted by signal")
			os.Exit(cli.ExitInterrupted)
		}
		fatal(err)
	}
	flush()
	cli.ClearInterrupted("soesweep", cache)
	if ctx.Err() != nil {
		// The signal landed after the last point finished — during or
		// just before the final flush. The sweep itself is complete and
		// was flushed exactly once above, so the marker is cleared, but
		// the process still reports the interruption instead of exiting
		// 0 as if nothing happened.
		fmt.Fprintln(os.Stderr, "soesweep: interrupted during final flush; sweep output is complete")
		os.Exit(cli.ExitInterrupted)
	}
	if *metrics {
		fmt.Fprintf(os.Stderr, "soesweep: metrics: %s\n", cache.Metrics())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "soesweep:", err)
	os.Exit(1)
}

func parseValues(s, def string) []float64 {
	if s == "" {
		s = def
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			fatal(fmt.Errorf("bad value %q: %w", part, err))
		}
		out = append(out, v)
	}
	return out
}

func splitPair(pair string) (workload.Profile, workload.Profile, error) {
	parts := strings.SplitN(pair, ":", 2)
	if len(parts) != 2 {
		return workload.Profile{}, workload.Profile{}, fmt.Errorf("pair must be a:b, got %q", pair)
	}
	a, ok := workload.ByName(parts[0])
	if !ok {
		return workload.Profile{}, workload.Profile{}, fmt.Errorf("unknown profile %q", parts[0])
	}
	b, ok := workload.ByName(parts[1])
	if !ok {
		return workload.Profile{}, workload.Profile{}, fmt.Errorf("unknown profile %q", parts[1])
	}
	return a, b, nil
}

// runPair runs a:b on machine m through the result cache and returns
// results plus per-thread speedups against single-thread references
// (cached across sweep points — the references do not depend on the
// swept parameter unless the machine itself changes).
func runPair(ctx context.Context, c *experiments.Cache, wd sim.Watchdog, m sim.MachineConfig, a, b workload.Profile, sc sim.Scale, sib *sim.Siblings) (*sim.Result, []float64, error) {
	var st []float64
	for i, p := range []workload.Profile{a, b} {
		refMachine := sim.DefaultMachine()
		refMachine.Controller.Policy = core.EventOnly{}
		ref, err := c.RunSpecContext(ctx, sim.Spec{
			Machine:  refMachine,
			Threads:  []sim.ThreadSpec{{Profile: p, Slot: i}},
			Scale:    sc,
			Watchdog: wd,
		})
		if err != nil {
			return nil, nil, err
		}
		st = append(st, ref.Threads[0].IPC)
	}
	res, err := c.RunSpecContext(ctx, sim.Spec{
		Machine: m,
		Threads: []sim.ThreadSpec{
			{Profile: a, Slot: 0},
			{Profile: b, Slot: 1, StartSeq: sameOffset(a, b)},
		},
		Scale:    sc,
		Watchdog: wd,
		Siblings: sib,
	})
	if err != nil {
		return nil, nil, err
	}
	if res.Truncated {
		fmt.Fprintf(os.Stderr, "soesweep: WARNING: %s:%s truncated at MaxCycles=%d; values are approximate\n",
			a.Name, b.Name, sc.MaxCycles)
	}
	sp := core.Speedups([]float64{res.Threads[0].IPC, res.Threads[1].IPC}, st)
	return res, sp, nil
}

func sameOffset(a, b workload.Profile) uint64 {
	if a.Name == b.Name {
		return 100_000
	}
	return 0
}

func policyFor(f float64) core.Policy {
	if f <= 0 {
		return core.EventOnly{}
	}
	return core.Fairness{F: f}
}

// buildPolicy resolves -policy (zoo names, PolicyByName defaults) or
// falls back to the seed -F selection.
func buildPolicy(name string, f float64) (core.Policy, error) {
	if name == "" {
		return policyFor(f), nil
	}
	return core.PolicyByName(name, core.PolicyParams{F: f})
}

// sweepMix sweeps thread count over prefixes of a heterogeneous mix
// under one policy, reporting the min-over-pairs fairness metric at
// each N — the N-thread sweep the hypotheses harness documents
// (hypotheses/FINDINGS_grouped-fairness.md).
func sweepMix(ctx context.Context, c *experiments.Cache, wd sim.Watchdog, mix, policyName string, f float64, sc sim.Scale) (*stats.Table, error) {
	specs, err := experiments.ParseMix(mix)
	if err != nil {
		return nil, err
	}
	if len(specs) < 2 {
		return nil, fmt.Errorf("-threads needs at least two workloads, got %q", mix)
	}
	pol, err := buildPolicy(policyName, f)
	if err != nil {
		return nil, err
	}
	tbl := stats.NewTable("threads", "mix", "total IPC", "fairness", "min speedup", "forced/1k")
	for n := 2; n <= len(specs); n++ {
		m := sim.DefaultMachine()
		m.Controller.Policy = pol
		res, sp, err := experiments.RunMix(ctx, c, wd, m, specs[:n], sc)
		if err != nil {
			return tbl, err
		}
		minSp := sp[0]
		names := specs[0].Profile.Name
		for i := 1; i < n; i++ {
			if sp[i] < minSp {
				minSp = sp[i]
			}
			names += ":" + specs[i].Profile.Name
		}
		tbl.AddRow(fmt.Sprintf("%d", n), names,
			fmt.Sprintf("%.3f", res.IPCTotal),
			fmt.Sprintf("%.3f", core.FairnessMetric(sp)),
			fmt.Sprintf("%.3f", minSp),
			fmt.Sprintf("%.2f", res.ForcedPer1k()))
	}
	return tbl, nil
}

// The sweep functions return the partially built table alongside any
// error, so an interrupted sweep can still flush its completed rows.
func sweepF(ctx context.Context, c *experiments.Cache, wd sim.Watchdog, pair string, points int, sc sim.Scale) (*stats.Table, error) {
	a, b, err := splitPair(pair)
	if err != nil {
		return nil, err
	}
	if points < 2 {
		points = 2
	}
	tbl := stats.NewTable("F", "IPC", "fairness", "speedupA", "speedupB", "forced/1k")
	// The points differ only in their policy: one sibling scope lets
	// them share the warmed machine and, where quotas agree, results.
	sib := new(sim.Siblings)
	for i := 0; i < points; i++ {
		f := float64(i) / float64(points-1)
		m := sim.DefaultMachine()
		m.Controller.Policy = policyFor(f)
		res, sp, err := runPair(ctx, c, wd, m, a, b, sc, sib)
		if err != nil {
			return tbl, err
		}
		tbl.AddRow(fmt.Sprintf("%.3f", f),
			fmt.Sprintf("%.3f", res.IPCTotal),
			fmt.Sprintf("%.3f", core.FairnessMetric(sp)),
			fmt.Sprintf("%.3f", sp[0]), fmt.Sprintf("%.3f", sp[1]),
			fmt.Sprintf("%.2f", res.ForcedPer1k()))
	}
	return tbl, nil
}

func sweepScalar(ctx context.Context, c *experiments.Cache, wd sim.Watchdog, pair, param string, values []float64, f float64, sc sim.Scale) (*stats.Table, error) {
	a, b, err := splitPair(pair)
	if err != nil {
		return nil, err
	}
	tbl := stats.NewTable(param, "IPC", "fairness", "switches/1k", "forced/1k")
	for _, v := range values {
		m := sim.DefaultMachine()
		m.Controller.Policy = policyFor(f)
		switch param {
		case "misslat":
			m.Memory.MemLatency = int(v)
			m.Controller.MissLat = v
		case "drain":
			m.Controller.DrainCycles = uint64(v)
		case "delta":
			m.Controller.Delta = uint64(v)
			if q := uint64(v) / 5; q < m.Controller.MaxCyclesQuota {
				m.Controller.MaxCyclesQuota = q
			}
		default:
			return nil, fmt.Errorf("unknown scalar parameter %q", param)
		}
		res, sp, err := runPair(ctx, c, wd, m, a, b, sc, nil)
		if err != nil {
			return tbl, err
		}
		tbl.AddRow(fmt.Sprintf("%.0f", v),
			fmt.Sprintf("%.3f", res.IPCTotal),
			fmt.Sprintf("%.3f", core.FairnessMetric(sp)),
			fmt.Sprintf("%.2f", float64(res.Switches.Total())/float64(res.WallCycles)*1000),
			fmt.Sprintf("%.2f", res.ForcedPer1k()))
	}
	return tbl, nil
}

// sweepThreads scales the number of copies of one workload from 1 to
// max (Eickemeyer et al.: SOE throughput saturates around three
// threads).
func sweepThreads(ctx context.Context, c *experiments.Cache, wd sim.Watchdog, bench string, max int, f float64, sc sim.Scale) (*stats.Table, error) {
	prof, ok := workload.ByName(bench)
	if !ok {
		return nil, fmt.Errorf("unknown profile %q", bench)
	}
	if max < 1 {
		max = 1
	}
	tbl := stats.NewTable("threads", "total IPC", "speedup vs 1", "switches/1k")
	var base float64
	for n := 1; n <= max; n++ {
		m := sim.DefaultMachine()
		m.Controller.Policy = policyFor(f)
		var threads []sim.ThreadSpec
		for i := 0; i < n; i++ {
			p := prof
			p.Seed += uint64(i) * 7919
			threads = append(threads, sim.ThreadSpec{Profile: p, Slot: i})
		}
		res, err := c.RunSpecContext(ctx, sim.Spec{Machine: m, Threads: threads, Scale: sc, Watchdog: wd})
		if err != nil {
			return tbl, err
		}
		if n == 1 {
			base = res.IPCTotal
		}
		tbl.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%.3f", res.IPCTotal),
			fmt.Sprintf("%.2fx", res.IPCTotal/base),
			fmt.Sprintf("%.2f", float64(res.Switches.Total())/float64(res.WallCycles)*1000))
	}
	return tbl, nil
}
