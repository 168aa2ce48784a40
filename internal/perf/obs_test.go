package perf

import (
	"context"
	"testing"

	"soemt/internal/sim"
)

// TestObsOverheadWithinBudget runs the observability-overhead scenario
// at a small scale and enforces a loose CI-safe ceiling: a fully
// attached observer (tracer + registry, strictly more work than the
// disabled nil-check path) must not cost more than 25% wall time. The
// DESIGN.md §10 budget of ≤2% for the DISABLED configuration is bounded
// by this measurement from above; soebench records the precise ratio at
// realistic scales, where the per-run constant costs amortize further.
// The gate reads the median of nine paired on/off rounds, so load from
// packages testing in parallel moves both arms of a round alike, and a
// few rounds it still skews cannot move the median past the budget.
func TestObsOverheadWithinBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement")
	}
	scale := sim.Scale{CacheWarm: 40_000, Warm: 20_000, Measure: 120_000, MaxCycles: 10_000_000}
	r := NewReport("test")
	ratio, err := MeasureObsOverhead(context.Background(), r, scale, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("obs on/off wall-time ratio = %.3f", ratio)
	if ratio > 1.25 {
		t.Errorf("enabled observability costs %.1f%% wall time; budget is 25%% at test scale", (ratio-1)*100)
	}
	if ratio < 0.5 {
		t.Errorf("ratio %.3f implausibly low; measurement is broken", ratio)
	}
	if len(r.Entries) != 2 {
		t.Fatalf("expected 2 report entries, got %d", len(r.Entries))
	}
	if _, ok := r.ObsOverhead[obsScenarioName]; !ok {
		t.Fatal("ObsOverhead not recorded in report")
	}
	for _, e := range r.Entries {
		if e.SimCycles == 0 || e.Instrs == 0 {
			t.Errorf("entry %s/%s has zero work recorded", e.Scenario, e.Engine)
		}
	}
}
