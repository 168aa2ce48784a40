package main

import (
	"fmt"
	"time"

	"soemt/internal/arena"
	"soemt/internal/branch"
	"soemt/internal/core"
	"soemt/internal/isa"
	"soemt/internal/mem"
	"soemt/internal/obs"
	"soemt/internal/pipeline"
	"soemt/internal/sim"
	"soemt/internal/workload"
)

// sliceCycles is the execution slice sim.RunContext hands to
// Controller.Advance between its watchdog checks.
const sliceCycles = 1 << 16

// replicaStats is what the benchmark learns by driving the machine
// itself: host time per protocol phase and per slice class, and the
// layers' own counters at the end of the run.
type replicaStats struct {
	build, cacheWarm, timingWarm, measure time.Duration

	busyTime, idleTime      time.Duration // slices classed busy / idle
	busyCycles, idleCycles  uint64        // non-skipped cycles of busy slices; all cycles of idle slices
	skipWindows, skipCycles uint64
	totalCycles             uint64

	l1dMiss, l2Miss, dtlbMiss float64
	mispredict                float64
	squashRatio, robOcc       float64
}

// engineFor maps Spec.Engine to the controller engine the way
// sim.RunContext does; the fidelity check proves the mapping holds.
func engineFor(s sim.Spec) (core.Engine, error) {
	switch s.Engine {
	case "":
		if s.CycleByCycle {
			return core.EngineCycleByCycle, nil
		}
		return core.EngineEventWheel, nil
	case "cycle-by-cycle":
		return core.EngineCycleByCycle, nil
	case "fast-forward":
		return core.EngineFastForward, nil
	case "event-wheel":
		return core.EngineEventWheel, nil
	}
	return 0, fmt.Errorf("replica: unknown engine %q", s.Engine)
}

// runReplica assembles the machine sim.RunContext builds from the
// layers' public constructors and runs the same protocol: functional
// cache warmup, timing warmup, stats reset, measured run, in slices of
// sliceCycles. It records a span per phase and per slice under parent
// and returns the Result sim.RunContext would return.
func runReplica(spec sim.Spec, sp *spans, parent int) (*sim.Result, replicaStats, error) {
	var st replicaStats
	if err := spec.Validate(); err != nil {
		return nil, st, err
	}
	m := spec.Machine
	reg := obs.NewRegistry()

	start := time.Now()
	id := sp.begin("sim.build", parent, "")
	ar := arena.New()
	hier, err := mem.NewHierarchyIn(ar, m.Memory)
	if err != nil {
		return nil, st, err
	}
	bu := branch.NewUnit(m.Pipeline.BranchEntries, m.Pipeline.BTBEntries, m.Pipeline.RASDepth, m.Pipeline.HistoryBits)
	pipe, err := pipeline.NewIn(ar, m.Pipeline, hier, bu)
	if err != nil {
		return nil, st, err
	}
	threads := make([]*core.Thread, len(spec.Threads))
	gens := make([]*workload.Generator, len(spec.Threads))
	for i, ts := range spec.Threads {
		gens[i] = workload.NewOffset(ts.Profile, ts.Slot)
		threads[i] = &core.Thread{Name: ts.Profile.Name, Stream: workload.NewStream(gens[i], ts.StartSeq), Events: ts.Events}
	}
	sp.end(id)
	st.build = time.Since(start)

	start = time.Now()
	id = sp.begin("sim.cache_warm", parent, "")
	for i, ts := range spec.Threads {
		warmCaches(hier, gens[i], ts.StartSeq, spec.Scale.CacheWarm)
	}
	hier.ResetTiming()
	hier.ResetStats()
	sp.end(id)
	st.cacheWarm = time.Since(start)

	ctl, err := core.NewController(pipe, m.Controller, threads)
	if err != nil {
		return nil, st, err
	}
	engine, err := engineFor(spec)
	if err != nil {
		return nil, st, err
	}
	ctl.SetEngine(engine)
	ctl.SetObserver(&obs.Observer{Metrics: reg})
	skipW, skipC := reg.Counter("core.skip.windows"), reg.Counter("core.skip.cycles")

	runPhase := func(name string, target uint64) uint64 {
		pid := sp.begin(name, parent, "")
		defer sp.end(pid)
		begin := ctl.Now()
		for done := false; !done; {
			c0, s0 := ctl.Now(), skipC.Load()
			t0 := time.Now()
			sid := sp.begin("core.Advance", pid, "")
			done = ctl.Advance(target, spec.Scale.MaxCycles, begin, sliceCycles)
			sp.end(sid)
			dt := time.Since(t0)
			cycles, skipped := ctl.Now()-c0, skipC.Load()-s0
			if 2*skipped >= cycles && cycles > 0 {
				st.idleTime += dt
				st.idleCycles += cycles
			} else {
				st.busyTime += dt
				st.busyCycles += cycles - skipped
			}
		}
		return ctl.Now() - begin
	}

	start = time.Now()
	runPhase("sim.timing_warm", spec.Scale.Warm)
	ctl.ResetStats()
	st.timingWarm = time.Since(start)

	start = time.Now()
	cycles := runPhase("sim.measure", spec.Scale.Measure)
	st.measure = time.Since(start)

	res := &sim.Result{
		WallCycles: cycles,
		Switches:   ctl.Switches(),
		Samples:    ctl.Samples(),
		Truncated:  ctl.Truncated(),
	}
	for _, th := range ctl.Threads() {
		cnt := th.Counters()
		var ipc float64
		if cycles > 0 {
			ipc = float64(cnt.Instrs) / float64(cycles)
		}
		tr := sim.ThreadResult{
			Name:     th.Name,
			Counters: cnt,
			IPC:      ipc,
			EstIPCST: cnt.EstIPCST(m.Controller.MissLat),
			IPM:      cnt.IPM(),
			CPM:      cnt.CPM(),
			Visits:   th.Visits(),
			AvgVisit: th.AvgVisitInstrs(),
		}
		res.Threads = append(res.Threads, tr)
		res.IPCTotal += tr.IPC
	}

	st.skipWindows, st.skipCycles, st.totalCycles = skipW.Load(), skipC.Load(), ctl.Now()
	st.l1dMiss = hier.L1D.Stats.MissRate()
	st.l2Miss = hier.L2.Stats.MissRate()
	st.dtlbMiss = hier.DTLB.Stats.MissRate()
	st.mispredict = bu.MispredictRate()
	st.squashRatio = ratio(float64(pipe.Metrics.Squashed), float64(pipe.Metrics.Fetched))
	st.robOcc = pipe.Metrics.AvgROBOccupancy()
	return res, st, nil
}

// warmCaches repeats sim's functional cache warmup through the
// hierarchy's public Translate*/Access* calls: sweep the code, hot and
// warm regions and the cold region's page tables, then replay n
// instructions from seq. Accesses are spaced 1000 cycles apart so none
// overlap in the MSHRs.
func warmCaches(h *mem.Hierarchy, g *workload.Generator, seq, n uint64) {
	now := uint64(0)
	access := func(addr uint64, fetch bool) {
		if fetch {
			h.TranslateFetch(now, addr)
			h.AccessFetch(now, addr)
		} else {
			h.TranslateData(now, addr)
			h.AccessData(now, addr, false)
		}
		now += 1000
	}
	r := g.Regions()
	for a := r.CodeBase; a < r.CodeBase+r.CodeBytes; a += 64 {
		access(a, true)
	}
	for a := r.HotBase; a < r.HotBase+r.HotBytes; a += 64 {
		access(a, false)
	}
	for a := r.WarmBase; a < r.WarmBase+r.WarmBytes; a += 64 {
		access(a, false)
	}
	for a := r.ColdBase; a < r.ColdBase+r.ColdBytes; a += 8 * 4096 {
		h.TranslateData(now, a)
		now += 1000
	}
	for i := seq; i < seq+n; i++ {
		u := g.At(i)
		if u.Seq%16 == 0 {
			access(u.PC, true)
		}
		if u.Kind.IsMem() {
			h.TranslateData(now, u.Addr)
			h.AccessData(now, u.Addr, u.Kind == isa.Store)
			now += 1000
		}
	}
}
