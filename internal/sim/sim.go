// Package sim assembles the full simulated machine (out-of-order core,
// memory hierarchy, branch unit, SOE controller) and runs the paper's
// measurement protocol: functional cache warmup, a timing warmup
// excluded from statistics, then a measured run until every thread has
// retired its instruction target.
package sim

import (
	"context"
	"fmt"
	"sync"
	"time"

	"soemt/internal/arena"
	"soemt/internal/core"
	"soemt/internal/isa"
	"soemt/internal/mem"
	"soemt/internal/obs"
	"soemt/internal/pipeline"
	"soemt/internal/stats"
	"soemt/internal/workload"
)

// MachineConfig bundles all hardware configuration.
type MachineConfig struct {
	Pipeline   pipeline.Config
	Memory     mem.HierarchyConfig
	Controller core.Config
}

// DefaultMachine returns the paper's machine (Table 3 / DESIGN.md).
func DefaultMachine() MachineConfig {
	return MachineConfig{
		Pipeline:   pipeline.DefaultConfig(),
		Memory:     mem.DefaultConfig(),
		Controller: core.DefaultConfig(),
	}
}

// Scale sets the measurement protocol lengths, in instructions.
type Scale struct {
	CacheWarm uint64 // functional cache warmup per thread
	Warm      uint64 // timing warmup excluded from statistics
	Measure   uint64 // measured instructions per thread
	MaxCycles uint64 // safety cap on measured cycles (0 = none)
}

// PaperScale is the protocol from §4.1: 10M cache-warm, 1M excluded,
// 6M measured instructions per thread.
func PaperScale() Scale {
	return Scale{CacheWarm: 10_000_000, Warm: 1_000_000, Measure: 6_000_000}
}

// QuickScale is a scaled-down protocol for tests and smoke runs. The
// shapes of the paper's results hold at this scale; absolute values
// are noisier.
func QuickScale() Scale {
	return Scale{CacheWarm: 300_000, Warm: 150_000, Measure: 700_000, MaxCycles: 60_000_000}
}

// TinyScale is the smallest named protocol: short enough for CI and
// smoke runs, long enough that every pair crosses a few Δ samples.
func TinyScale() Scale {
	return Scale{CacheWarm: 50_000, Warm: 50_000, Measure: 250_000, MaxCycles: 50_000_000}
}

// ScaleByName resolves a protocol name — "tiny", "quick" or "paper" —
// to its Scale. It is the one definition of the named scales: every
// command, the service and the harnesses resolve names through it, so
// a label always means the same protocol.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "tiny":
		return TinyScale(), nil
	case "quick":
		return QuickScale(), nil
	case "paper":
		return PaperScale(), nil
	}
	return Scale{}, fmt.Errorf("sim: unknown scale %q (want tiny, quick or paper)", name)
}

// ThreadSpec describes one thread of a run.
type ThreadSpec struct {
	Profile  workload.Profile
	Slot     int    // address-space slot (distinct per thread)
	StartSeq uint64 // initial architectural position (paper offsets same-benchmark pairs by 1M)
	Events   []pipeline.InjectedStall
}

// Spec describes a complete simulation run.
//
// Watchdog, Engine, CycleByCycle, Obs and Siblings are execution
// policy and observability, not simulation input: they bound, slow,
// watch or shortcut the run but never change a produced result, so
// all are excluded from FingerprintJSON and cache keys.
type Spec struct {
	Machine  MachineConfig
	Threads  []ThreadSpec
	Scale    Scale
	Watchdog Watchdog

	// Engine names the idle-stretch engine: "fast-forward" (the
	// default, also selected by "") or "cycle-by-cycle" (the reference
	// that executes every simulated cycle individually). Both produce
	// bit-identical Results — verified by the equivalence matrix in
	// fastforward_test.go — so this exists for verification and for
	// benchmarking the engines against each other (DESIGN.md §9).
	Engine string

	// CycleByCycle selects the reference engine when Engine is empty.
	//
	// Deprecated: set Engine to "cycle-by-cycle". Only the perfbench
	// replica still reads this field.
	CycleByCycle bool

	// Obs, when non-nil, attaches the observability layer (DESIGN.md
	// §10): controller events stream into Obs.Trace and counters
	// accumulate into Obs.Metrics. Strictly read-only with respect to
	// the simulation — results are bit-identical with or without an
	// observer (the equivalence matrix runs with tracing enabled) —
	// and therefore excluded from fingerprints: observed and
	// unobserved runs share cache entries. Note that a cache hit skips
	// the simulation entirely and records nothing.
	Obs *obs.Observer `json:"-"`

	// Siblings, when non-nil, is a reuse scope shared with runs that
	// differ from this one only in the controller policy (see
	// Siblings). Like Obs it never changes a produced result and is
	// excluded from fingerprints.
	Siblings *Siblings `json:"-"`
}

// ThreadResult is the per-thread outcome of a run.
type ThreadResult struct {
	Name     string
	Counters stats.Counters // Instrs / running Cycles / switch-causing Misses
	IPC      float64        // instructions per wall cycle (IPC_SOE_j; IPC_ST for single-thread runs)
	EstIPCST float64        // Eq. 13 estimate from the full-run counters
	IPM      float64        // measured instructions per counted miss
	CPM      float64        // measured running cycles per counted miss
	Visits   uint64         // completed dispatches
	AvgVisit float64        // mean instructions per dispatch (realized IPSw)
}

// Result is the outcome of one run.
type Result struct {
	WallCycles uint64
	Threads    []ThreadResult
	IPCTotal   float64          // Eq. 10 aggregate throughput
	Switches   core.SwitchStats // by cause (measured window only)
	Samples    []core.Sample    // Δ-cycle time series (Figure 5)

	// Truncated reports that the measured run stopped at
	// Scale.MaxCycles before every thread retired its target; the
	// per-thread counters (and thus IPC) cover fewer instructions than
	// Scale.Measure requested.
	Truncated bool
}

// testHookPostBuild, when non-nil, runs after the machine is built and
// before measurement — a test seam for the panic-recovery boundary.
var testHookPostBuild func()

// arenaPool recycles the per-run state arenas across RunContext calls
// (including concurrent ones — each run checks out its own arena).
var arenaPool = sync.Pool{New: func() any { return arena.New() }}

// ForcedPer1k returns forced (non-miss) switches per 1000 cycles, the
// right axis of the paper's Figure 7.
func (r *Result) ForcedPer1k() float64 {
	if r.WallCycles == 0 {
		return 0
	}
	return float64(r.Switches.Forced()) / float64(r.WallCycles) * 1000
}

// Run executes the full protocol for spec without external
// cancellation; see RunContext.
func Run(spec Spec) (*Result, error) {
	return RunContext(context.Background(), spec)
}

// RunContext executes the full protocol for spec, honoring ctx
// cancellation, the spec's wall-clock deadline, and its
// forward-progress stall detector between execution slices.
//
// Robustness contract: the spec is validated before any machine state
// is built (bad configurations return errors, they never panic), and
// an internal invariant panic in the pipeline, memory system or
// controller is recovered into a *PanicError carrying the spec
// fingerprint — a failing run in a large matrix diagnoses itself
// instead of killing the process.
func RunContext(ctx context.Context, spec Spec) (res *Result, err error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	fp := spec.fingerprintLabel()
	defer func() {
		if rec := recover(); rec != nil {
			res, err = nil, recoverToError(fp, rec)
		}
	}()
	engine, err := spec.engine()
	if err != nil {
		return nil, err
	}
	reg := spec.Obs.Registry()
	clock := startPhaseClock(reg)

	stallWindow := spec.Watchdog.StallCycles
	if stallWindow == 0 {
		stallWindow = DefaultStallCycles
	}
	var deadline time.Time
	if spec.Watchdog.Timeout > 0 {
		deadline = time.Now().Add(spec.Watchdog.Timeout)
	}
	// checkAborts reports cancellation or deadline expiry; cheap enough
	// to call once per execution slice.
	checkAborts := func(phase string, cycle uint64) error {
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("sim: %s cancelled at cycle %d [spec %s]: %w", phase, cycle, fp, cerr)
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return &DeadlineError{Phase: phase, Cycle: cycle, Timeout: spec.Watchdog.Timeout, Fingerprint: fp}
		}
		return nil
	}

	// A sibling scope may already hold a run this one would retrace
	// exactly (see Siblings): then there is nothing to simulate.
	sib := spec.Siblings.join(spec, engine)
	if r := sib.reuse(); r != nil {
		if err := checkAborts("sibling reuse", 0); err != nil {
			return nil, err
		}
		reg.Counter("sim.siblings.result_reuse").Inc()
		return r, nil
	}

	// Machine-internal state (cache/TLB tag arrays, pipeline SoA
	// arrays) is carved from a pooled arena so repeated runs reuse the
	// same backing memory: after the pool warms up, building a machine
	// is O(1) allocations. Only machine internals live in the arena —
	// the returned Result, Samples and observer state never do, so
	// recycling on return cannot alias anything the caller retains.
	ar := arenaPool.Get().(*arena.Arena)
	defer func() {
		ar.Reset()
		arenaPool.Put(ar)
	}()

	cfg := spec.Machine.Controller
	if sib != nil {
		cfg.Policy = sib.log
	}
	m, err := buildMachine(ar, spec, cfg)
	if err != nil {
		return nil, err
	}
	ctl := m.ctl
	ctl.SetEngine(engine)
	ctl.SetObserver(spec.Obs)
	tracer := spec.Obs.Tracer()
	phaseCause := func(phase string) obs.Cause {
		if phase == "measure" {
			return obs.CauseMeasure
		}
		return obs.CauseWarmup
	}
	// A sibling's snapshot replaces the functional cache warmup and the
	// timing warmup up to the family's fork point.
	fork := sib.restorable()
	if fork != nil {
		m.copyFrom(fork.m)
		reg.Counter("sim.siblings.prefix_reuse").Inc()
	}
	clock.lap("build")
	if testHookPostBuild != nil {
		testHookPostBuild()
	}

	if fork == nil {
		// Functional cache warmup (paper: 10M instructions per thread).
		for i, ts := range spec.Threads {
			if err := warmCaches(m.hier, m.gens[i], ts.StartSeq, spec.Scale.CacheWarm, func() error {
				return checkAborts("cache warmup", 0)
			}); err != nil {
				return nil, err
			}
		}
		m.hier.ResetTiming()
		m.hier.ResetStats()
	}
	clock.lap("cache_warm")

	// runPhase advances the phase that began at cycle start toward
	// target in execution slices aligned to start, checking
	// cancellation, the wall-clock deadline, and forward progress
	// between slices. onPause, when non-nil, runs once with the machine
	// stopped at cycle pauseAt, a Δ-sample boundary, before that
	// cycle's Step, if the phase gets there. Idle skips already stop at
	// Δ boundaries and the slice keeps its budget, so the pause leaves
	// the run unchanged.
	runPhase := func(phase string, start, target, pauseAt uint64, onPause func()) (uint64, error) {
		lastRetired := ctl.TotalRetired()
		lastProgress := ctl.Now()
		if tracer != nil {
			tracer.Record(obs.Event{
				Cycle: start, Kind: obs.KindPhase, Cause: phaseCause(phase),
				Thread: -1, N: target,
			})
		}
		for {
			budget := sliceCycles - (ctl.Now()-start)%sliceCycles
			if onPause != nil && pauseAt >= ctl.Now() && pauseAt-ctl.Now() < budget {
				n := pauseAt - ctl.Now()
				if n > 0 && ctl.Advance(target, spec.Scale.MaxCycles, start, n) {
					break
				}
				onPause()
				onPause = nil
				budget -= n
			}
			if ctl.Advance(target, spec.Scale.MaxCycles, start, budget) {
				break
			}
			if tracer != nil {
				// One watchdog slice elapsed without completing the phase.
				tracer.Record(obs.Event{
					Cycle: ctl.Now(), Kind: obs.KindSlice, Cause: phaseCause(phase),
					Thread: -1, N: sliceCycles,
				})
			}
			if err := checkAborts(phase, ctl.Now()); err != nil {
				return ctl.Now() - start, err
			}
			if r := ctl.TotalRetired(); r != lastRetired {
				lastRetired, lastProgress = r, ctl.Now()
			} else if stallWindow != StallOff && ctl.Now()-lastProgress >= stallWindow {
				return ctl.Now() - start, &StallError{
					Phase: phase, Cycle: ctl.Now(), Window: stallWindow, Fingerprint: fp,
				}
			}
		}
		return ctl.Now() - start, nil
	}

	// Timing warmup: run, then discard statistics (paper: first 1M
	// instructions excluded; also warms the fairness-mechanism state).
	// The warmup starts at cycle 0. A run without a snapshot offers the
	// scope one at its fork point: the first Δ sample when the warmup
	// reaches it, else the ResetStats flush sample at the warmup's end.
	switch {
	case fork == nil:
		forked := false
		var pause func()
		if sib != nil && ctl.NextSampleAt() > 0 {
			pause = func() { sib.offerFork(m, true); forked = true }
		}
		if _, err := runPhase("warmup", 0, spec.Scale.Warm, ctl.NextSampleAt(), pause); err != nil {
			return nil, err
		}
		if !forked {
			sib.offerFork(m, false)
		}
	case fork.midWarmup:
		if _, err := runPhase("warmup", 0, spec.Scale.Warm, 0, nil); err != nil {
			return nil, err
		}
	}
	ctl.ResetStats()
	clock.lap("timing_warm")

	cycles, err := runPhase("measure", ctl.Now(), spec.Scale.Measure, 0, nil)
	if err != nil {
		return nil, err
	}

	res = &Result{
		WallCycles: cycles,
		Switches:   ctl.Switches(),
		Samples:    ctl.Samples(),
		Truncated:  ctl.Truncated(),
	}
	missLat := spec.Machine.Controller.MissLat
	for _, th := range ctl.Threads() {
		cnt := th.Counters()
		var ipc float64
		if cycles > 0 {
			// Guarded: a measured phase can complete in 0 cycles (e.g.
			// Measure at or below the warmup target), and NaN would
			// poison the CSV exporter and fail json.Marshal in the
			// persistent result cache.
			ipc = float64(cnt.Instrs) / float64(cycles)
		}
		tr := ThreadResult{
			Name:     th.Name,
			Counters: cnt,
			IPC:      ipc,
			EstIPCST: cnt.EstIPCST(missLat),
			IPM:      cnt.IPM(),
			CPM:      cnt.CPM(),
			Visits:   th.Visits(),
			AvgVisit: th.AvgVisitInstrs(),
		}
		res.Threads = append(res.Threads, tr)
		res.IPCTotal += tr.IPC
	}
	clock.lap("measure")
	if reg != nil {
		// Publish the measured window's pipeline metrics. Controller
		// counters (switches, skips, samples) accumulated live.
		m.pipe.Metrics.Each(func(name string, v uint64) {
			reg.Counter("pipe." + name).Add(v)
		})
		reg.Counter("sim.runs").Inc()
		reg.Counter("sim.wall_cycles").Add(cycles)
		// Ring overflow is otherwise invisible outside the tracer itself;
		// the registry makes silent trace truncation a counted event.
		if d := tracer.Dropped(); d > 0 {
			reg.Counter("trace.dropped").Add(d)
		}
	}
	sib.record(res)
	return res, nil
}

// phaseClock adds the wall time of RunContext's protocol phases to
// sim.phase.<name>_ns registry counters. A nil clock — no registry
// attached — never reads the clock.
type phaseClock struct {
	reg  *obs.Registry
	last time.Time
}

func startPhaseClock(reg *obs.Registry) *phaseClock {
	if reg == nil {
		return nil
	}
	return &phaseClock{reg: reg, last: time.Now()}
}

// lap charges the time since the previous lap to phase name.
func (c *phaseClock) lap(name string) {
	if c == nil {
		return
	}
	now := time.Now()
	c.reg.Counter("sim.phase." + name + "_ns").Add(uint64(now.Sub(c.last)))
	c.last = now
}

// RunSingle runs one thread alone on the machine (the paper's IPC_ST
// reference runs).
func RunSingle(machine MachineConfig, ts ThreadSpec, scale Scale) (*Result, error) {
	machine.Controller.Policy = core.EventOnly{}
	return Run(Spec{Machine: machine, Threads: []ThreadSpec{ts}, Scale: scale})
}

// warmCaches brings the thread's resident working set to steady state
// without polluting timing state. Two parts:
//
//  1. Region sweeps: every code and hot/warm data line is touched, and
//     the page tables of all regions (including the cold region, whose
//     PTE lines are L2-resident in steady state) are walked. This is
//     the functional equivalent of the paper's 10M-instruction warmup
//     and makes short runs behave like long ones.
//  2. An instruction-driven pass over n instructions starting at seq,
//     which restores realistic recency (LRU) ordering and TLB
//     contents.
//
// Accesses are spaced far apart so no two overlap in the MSHRs.
//
// abort is polled periodically (the paper-scale warmup is 10M
// instructions per thread) so cancellation and deadlines take effect
// during warmup too; a non-nil abort error stops the warmup and is
// returned unchanged.
func warmCaches(h *mem.Hierarchy, g *workload.Generator, seq, n uint64, abort func() error) error {
	now := uint64(0)
	touch := func(addr uint64, fetch bool) {
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
		touch(a, true)
	}
	for a := r.HotBase; a < r.HotBase+r.HotBytes; a += 64 {
		touch(a, false)
	}
	for a := r.WarmBase; a < r.WarmBase+r.WarmBytes; a += 64 {
		touch(a, false)
	}
	// Walk one page in eight of the cold region: a 64-byte PTE line
	// covers eight 4 KiB pages, so this warms the full PTE footprint
	// into the L2 without touching cold data lines.
	for a := r.ColdBase; a < r.ColdBase+r.ColdBytes; a += 8 * 4096 {
		h.TranslateData(now, a)
		now += 1000
	}

	for i := seq; i < seq+n; i++ {
		if (i-seq)%65536 == 0 {
			if err := abort(); err != nil {
				return err
			}
		}
		u := g.At(i)
		if u.Seq%16 == 0 {
			touch(u.PC, true)
		}
		if u.Kind.IsMem() {
			h.TranslateData(now, u.Addr)
			h.AccessData(now, u.Addr, u.Kind == isa.Store)
			now += 1000
		}
	}
	return nil
}
