package perf

import (
	"context"
	"fmt"
	"slices"

	"soemt/internal/core"
	"soemt/internal/pipeline"
	"soemt/internal/sim"
	"soemt/internal/workload"
)

// Scenario is one benchmarkable simulation spec. The suite runs each
// scenario under every engine: Spec.Engine is overridden per run.
type Scenario struct {
	Name string
	Spec sim.Spec
}

// Engines lists the execution engines the suite benchmarks, reference
// first. The names are sim.Spec.Engine values and appear verbatim in
// report entries.
var Engines = [2]string{"cycle-by-cycle", "fast-forward"}

// DefaultSuite returns the standing benchmark scenarios at the given
// scale. The mix is deliberate: miss-heavy workloads are where the
// idle fast-forward should pay off (long L2/memory stalls dominated by
// idle cycles), while the compute-bound pair bounds the overhead the
// horizon scan adds when there is nothing to skip.
func DefaultSuite(scale sim.Scale) []Scenario {
	mk := func(policy core.Policy, names ...string) sim.Spec {
		m := sim.DefaultMachine()
		m.Controller.Policy = policy
		s := sim.Spec{Machine: m, Scale: scale}
		for i, n := range names {
			s.Threads = append(s.Threads, sim.ThreadSpec{
				Profile: workload.MustByName(n), Slot: i,
			})
		}
		return s
	}
	withEvents := mk(core.Fairness{F: 1}, "swim", "gcc")
	withEvents.Threads[0].Events = []pipeline.InjectedStall{
		{AtInstr: 50_000, StallCycles: 25_000},
		{AtInstr: 200_000, StallCycles: 60_000},
	}
	// The flagship fast-forward scenario: a miss-heavy pair under a
	// dense external-event schedule (long device-wait-style stalls on
	// both threads, far longer than MaxCyclesQuota). With both threads
	// stalled the machine is provably idle for hundreds of thousands of
	// cycles at a stretch, which is exactly what the idle fast-forward
	// skips. At QuickScale the measure phase runs into the protocol's
	// MaxCycles watchdog — identically under both engines — so the two
	// runs simulate the same capped cycle count.
	heavyEvents := mk(core.Fairness{F: 1}, "swim", "mcf")
	var stalls []pipeline.InjectedStall
	for i := uint64(1); i <= 1600; i++ {
		stalls = append(stalls, pipeline.InjectedStall{AtInstr: 500 * i, StallCycles: 150_000})
	}
	heavyEvents.Threads[0].Events = stalls
	heavyEvents.Threads[1].Events = stalls
	return []Scenario{
		{"single-missy-swim", mk(core.EventOnly{}, "swim")},
		{"single-missy-mcf", mk(core.EventOnly{}, "mcf")},
		{"pair-missy-swim-mcf", mk(core.EventOnly{}, "swim", "mcf")},
		{"pair-missy-fair-swim-mcf", mk(core.Fairness{F: 1}, "swim", "mcf")},
		{"pair-compute-gcc-eon", mk(core.Fairness{F: 1}, "gcc", "eon")},
		{"pair-events-swim-gcc", withEvents},
		{"pair-heavy-events-swim-mcf", heavyEvents},
	}
}

// RunSuite benchmarks every scenario under both engines in iters
// paired rounds (see pairedRounds). A scenario's speedup is the median
// of the per-round reference/fast-forward wall-time ratios; each
// engine's median-time run is appended to the report as its entry.
// progress, if non-nil, receives a line per engine entry and per
// speedup.
func RunSuite(ctx context.Context, r *Report, scenarios []Scenario, iters int, progress func(string)) error {
	if iters < 1 {
		iters = 1
	}
	if r.Speedups == nil {
		r.Speedups = map[string]float64{}
	}
	for _, sc := range scenarios {
		speedup, runs, err := pairedRounds(ctx, iters, Engines, func(engine string) (Entry, error) {
			spec := sc.Spec
			spec.Engine = engine
			return measureSpec(ctx, sc.Name, engine, spec)
		})
		if err != nil {
			return err
		}
		for _, es := range runs {
			slices.SortFunc(es, bySeconds)
			e := es[len(es)/2]
			r.Entries = append(r.Entries, e)
			if progress != nil {
				progress(fmt.Sprintf("%-28s %-14s %8.3fs  %12.0f cyc/s  %10d allocs",
					e.Scenario, e.Engine, e.Seconds, e.CyclesPerSec, e.AllocObjects))
			}
		}
		r.Speedups[sc.Name] = speedup
		if progress != nil {
			progress(fmt.Sprintf("%-28s speedup ff %.2fx (median of %d paired rounds)", sc.Name, speedup, iters))
		}
	}
	return nil
}
