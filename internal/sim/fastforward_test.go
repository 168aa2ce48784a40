package sim

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"soemt/internal/core"
	"soemt/internal/obs"
	"soemt/internal/pipeline"
	"soemt/internal/workload"
)

// ffScale is deliberately smaller than tinyScale: every matrix entry
// runs twice (fast-forward and reference engine), and the reference
// engine is the slow one by design.
func ffScale() Scale {
	return Scale{CacheWarm: 40_000, Warm: 20_000, Measure: 90_000, MaxCycles: 10_000_000}
}

// ffSpec builds a matrix entry. mutate may adjust the machine and
// threads to cover controller extensions.
func ffSpec(names []string, policy core.Policy, mutate func(*Spec)) Spec {
	m := DefaultMachine()
	m.Controller.Policy = policy
	s := Spec{Machine: m, Scale: ffScale()}
	for i, n := range names {
		ts := ThreadSpec{Profile: workload.MustByName(n), Slot: i}
		if i > 0 && n == names[0] {
			ts.StartSeq = 100_000
		}
		s.Threads = append(s.Threads, ts)
	}
	if mutate != nil {
		mutate(&s)
	}
	return s
}

// TestFastForwardEquivalenceMatrix asserts the fast-forward engine
// (the production default) and the cycle-by-cycle reference produce
// byte-identical Results across a matrix covering missy and non-missy
// pairs, single-thread reference runs, injected events,
// F ∈ {0, 1/4, 1/2, 1}, and every controller extension that interacts
// with the skip logic (MeasureMissLat, SwitchOnL1Miss, CountAllMisses,
// SmoothAlpha, TimeShare, NaiveDeficit). DESIGN.md §9 documents the
// contract.
func TestFastForwardEquivalenceMatrix(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"single-missy-swim", ffSpec([]string{"swim"}, core.EventOnly{}, nil)},
		{"single-nonmissy-eon", ffSpec([]string{"eon"}, core.EventOnly{}, nil)},
		{"pair-missy-swim-mcf-F0", ffSpec([]string{"swim", "mcf"}, core.EventOnly{}, nil)},
		{"pair-nonmissy-gcc-eon-F1", ffSpec([]string{"gcc", "eon"}, core.Fairness{F: 1}, nil)},
		{"pair-mixed-mcf-gzip-F025", ffSpec([]string{"mcf", "gzip"}, core.Fairness{F: 0.25}, nil)},
		{"pair-same-swim-swim-F05", ffSpec([]string{"swim", "swim"}, core.Fairness{F: 0.5}, nil)},
		{"pair-timeshare-art-crafty", ffSpec([]string{"art", "crafty"}, core.TimeShare{QuotaCycles: 20_000}, nil)},
		{"pair-events-swim-gcc", ffSpec([]string{"swim", "gcc"}, core.Fairness{F: 1}, func(s *Spec) {
			s.Threads[0].Events = []pipeline.InjectedStall{
				{AtInstr: 10_000, StallCycles: 4_000},
				{AtInstr: 40_000, StallCycles: 12_000},
			}
			s.Threads[1].Events = []pipeline.InjectedStall{
				{AtInstr: 25_000, StallCycles: 7_500},
			}
		})},
		{"pair-measure-misslat-l1switch", ffSpec([]string{"mcf", "eon"}, core.Fairness{F: 1}, func(s *Spec) {
			s.Machine.Controller.MeasureMissLat = true
			s.Machine.Controller.SwitchOnL1Miss = true
		})},
		{"pair-countall-smooth-naive", ffSpec([]string{"swim", "vpr"}, core.Fairness{F: 0.5}, func(s *Spec) {
			s.Machine.Controller.CountAllMisses = true
			s.Machine.Controller.SmoothAlpha = 0.4
			s.Machine.Controller.NaiveDeficit = true
		})},
		// N >= 3 zoo cells: the Granter path (WFQ credit bookkeeping and
		// non-round-robin dispatch), the grouped quota/weight path, and
		// the Culler path (mask changes, switch suppression, the
		// single-active fast-forward fallback) each interact with the
		// skip-clipping logic and must hold the same byte-identical
		// contract as the seed policies.
		{"quad-fairness-naware", ffSpec([]string{"gcc", "mcf", "swim", "eon"}, core.Fairness{F: 0.5}, nil)},
		{"quad-grouped-fairness", ffSpec([]string{"gcc", "mcf", "swim", "eon"},
			core.GroupedFairness{F: 0.5, MissyWeight: 2, FriendlyWeight: 1}, nil)},
		{"tri-wfq-weighted", ffSpec([]string{"swim", "gzip", "mcf"},
			core.WFQGrant{Weights: []float64{3, 1, 1}}, nil)},
		// MinAggFrac 1.0 demotes on every sub-peak window, so demotion
		// AND the ProbeEvery reactivation both provably fire mid-run
		// (asserted below via the core.cull.* counters).
		{"quad-malthusian", ffSpec([]string{"swim", "mcf", "art", "gzip"},
			core.Malthusian{MinAggFrac: 1, ProbeEvery: 3}, nil)},
	}
	if len(cases) < 8 {
		t.Fatalf("equivalence matrix must cover >= 8 specs, has %d", len(cases))
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			// The fast-forward run carries a live observer (tracer +
			// registry) while the reference runs bare: a byte-identical
			// comparison therefore proves engine equivalence AND that
			// observability never perturbs a result.
			observer := &obs.Observer{Trace: obs.NewTracer(0), Metrics: obs.NewRegistry()}
			ref := tc.spec
			ref.Engine = "cycle-by-cycle"
			refRes, err := Run(ref)
			if err != nil {
				t.Fatalf("cycle-by-cycle run: %v", err)
			}
			ff := tc.spec
			ff.Engine = "fast-forward"
			ff.Obs = observer
			ffRes, err := Run(ff)
			if err != nil {
				t.Fatalf("fast-forward run: %v", err)
			}
			refJSON, ffJSON := mustResultJSON(t, refRes), mustResultJSON(t, ffRes)
			if string(ffJSON) != string(refJSON) {
				t.Errorf("fast-forward result diverges from cycle-by-cycle reference\nfast-forward: %s\nreference:    %s",
					firstDiff(ffJSON, refJSON), firstDiffOther(ffJSON, refJSON))
			}
			// The traced run must have produced a non-trivial stream —
			// otherwise this test could pass with observability dead.
			if observer.Trace.Len() == 0 {
				t.Error("observer attached but no events traced")
			}
			if got := observer.Metrics.Counter("sim.runs").Load(); got != 1 {
				t.Errorf("registry sim.runs = %d, want 1", got)
			}
			if res, want := observer.Metrics.Counter("sim.wall_cycles").Load(), ffRes.WallCycles; res != want {
				t.Errorf("registry sim.wall_cycles = %d, want %d", res, want)
			}
			if tc.name == "quad-malthusian" {
				// The Malthusian cell must really exercise mid-run
				// demotion AND reactivation, or its equivalence proof
				// is vacuous for the Culler path.
				if d := observer.Metrics.Counter("core.cull.demotions").Load(); d == 0 {
					t.Error("quad-malthusian run demoted no thread; cell is vacuous")
				}
				if r := observer.Metrics.Counter("core.cull.reactivations").Load(); r == 0 {
					t.Error("quad-malthusian run reactivated no thread; cell is vacuous")
				}
			}
		})
	}
}

// TestFastForwardSkipsCycles asserts the fast path actually engages on
// a miss-heavy run under the default engine — without this, the matrix
// above could pass trivially with the skip logic dead — and never
// engages under the cycle-by-cycle reference.
func TestFastForwardSkipsCycles(t *testing.T) {
	run := func(engine string) (*Result, *obs.Registry) {
		t.Helper()
		spec := ffSpec([]string{"swim"}, core.EventOnly{}, nil)
		spec.Engine = engine
		reg := obs.NewRegistry()
		spec.Obs = &obs.Observer{Metrics: reg}
		res, err := Run(spec)
		if err != nil {
			t.Fatalf("engine %q: %v", engine, err)
		}
		if res.Truncated || res.WallCycles == 0 || res.Threads[0].Counters.Instrs == 0 {
			t.Fatalf("engine %q: degenerate or truncated run", engine)
		}
		return res, reg
	}

	// swim's profile is miss-dominated: far fewer than one instruction
	// per cycle, so most wall cycles are idle stall and skippable.
	res, reg := run("")
	skipped := reg.Counter("core.skip.cycles").Load()
	windows := reg.Counter("core.skip.windows").Load()
	frac := float64(skipped) / float64(res.WallCycles)
	t.Logf("default engine skipped %d of %d wall cycles (%.1f%%) in %d windows",
		skipped, res.WallCycles, frac*100, windows)
	if frac < 0.25 {
		t.Error("default engine skipped under 25% of wall cycles")
	}

	_, reg = run("cycle-by-cycle")
	if w := reg.Counter("core.skip.windows").Load(); w != 0 {
		t.Errorf("cycle-by-cycle engine recorded %d skip windows, want 0", w)
	}
}

// TestEngineResolution pins how Spec.Engine (and the deprecated
// CycleByCycle switch) resolve to a controller engine, through both
// Validate and engine().
func TestEngineResolution(t *testing.T) {
	cases := []struct {
		name    string
		engine  string
		cbc     bool
		want    core.Engine
		unknown bool
	}{
		{name: "empty", engine: "", want: core.EngineFastForward},
		{name: "empty-cycle-by-cycle-bool", engine: "", cbc: true, want: core.EngineCycleByCycle},
		{name: "fast-forward", engine: "fast-forward", want: core.EngineFastForward},
		{name: "cycle-by-cycle", engine: "cycle-by-cycle", want: core.EngineCycleByCycle},
		{name: "event-wheel", engine: "event-wheel", unknown: true},
		{name: "bogus", engine: "bogus", unknown: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := ffSpec([]string{"gcc"}, core.EventOnly{}, nil)
			spec.Engine, spec.CycleByCycle = tc.engine, tc.cbc
			verr := spec.Validate()
			got, err := spec.engine()
			if tc.unknown {
				for _, e := range []error{verr, err} {
					if e == nil || !strings.Contains(e.Error(), "unknown engine") {
						t.Errorf("Engine %q: error %v, want the unknown-engine error", tc.engine, e)
					}
				}
				return
			}
			if verr != nil || err != nil {
				t.Fatalf("Engine %q: Validate %v, engine() %v", tc.engine, verr, err)
			}
			if got != tc.want {
				t.Errorf("Engine %q (CycleByCycle %v) resolved to %v, want %v", tc.engine, tc.cbc, got, tc.want)
			}
		})
	}
}

func mustResultJSON(t *testing.T, r *Result) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return b
}

// firstDiff returns a window around the first differing byte of a vs b.
func firstDiff(a, b []byte) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := i - 60
	if lo < 0 {
		lo = 0
	}
	hi := i + 60
	if hi > len(a) {
		hi = len(a)
	}
	return fmt.Sprintf("...%s... (byte %d)", a[lo:hi], i)
}

func firstDiffOther(a, b []byte) string { return firstDiff(b, a) }
