package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"soemt/internal/sim"
)

// TestAttribution injects a 30% delay into one layer's replay at a time,
// in every other sample: only that layer's metrics may move beyond the
// bound between the two halves, and the report must name it.
func TestAttribution(t *testing.T) {
	if raceEnabled {
		// The race detector slows each layer's calls by a different
		// factor of ten or more, so timings no longer compare.
		t.Skip("timing comparison is meaningless under the race detector")
	}
	const bound = 0.15
	spec := busySpecs(defaultSeed)[0]
	for _, layer := range []string{"workload", "mem", "branch", "pipeline"} {
		r := newReplayer(map[string]float64{layer: 0.3})
		if err := r.replaySpec(spec, replayInstrs/2, replayCycles/2); err != nil {
			t.Fatal(err)
		}
		base, slowed := r.medians(), r.mediansOf(r.slowed)
		if got := attribute(base, slowed, bound); !reflect.DeepEqual(got, []string{layer}) {
			t.Errorf("30%% delay in %s: attributed to %v\nbase   %v\nslowed %v", layer, got, base, slowed)
		}
	}
}

// TestReplicaMatchesRunContext checks the traced run's machine against
// sim.RunContext on a short stall-heavy spec, where idle skipping is
// most of the run.
func TestReplicaMatchesRunContext(t *testing.T) {
	spec := stallSpecs(defaultSeed)[0]
	spec.Scale = sim.Scale{CacheWarm: 5_000, Warm: 2_000, Measure: 20_000, MaxCycles: 2_000_000}
	res, st, err := runReplica(spec, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	if st.skipWindows == 0 {
		t.Fatal("replica skipped no idle window; the check would prove nothing")
	}
	if err := checkFidelity(spec, res, st); err != nil {
		t.Fatal(err)
	}
	spec.Engine = refEngine
	ref, err := sim.RunContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := resultDigest(res)
	b, _ := resultDigest(ref)
	if a != b {
		t.Fatalf("replica digest %s, reference engine %s", a, b)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metrics the
// benchmark emits.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct {
		Name, Unit, Better string
	}
	var doc struct {
		EndToEnd []m `json:"end_to_end"`
		PerLayer []m `json:"per_layer"`
		Workload []struct{ Name string }
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var e2e []string
	for _, x := range doc.EndToEnd {
		e2e = append(e2e, x.Name)
	}
	want := append([]string(nil), endToEnd...)
	sort.Strings(e2e)
	sort.Strings(want)
	if !reflect.DeepEqual(e2e, want) {
		t.Errorf("end_to_end %v, benchmark emits %v", e2e, want)
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer has %d metrics, benchmark emits %d", len(doc.PerLayer), len(perLayer))
	}
	for i, x := range doc.PerLayer {
		if p := perLayer[i]; x != (m{p.name, p.unit, p.better}) {
			t.Errorf("per_layer[%d] = %v, benchmark emits %v", i, x, p)
		}
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"soemt/internal/mem.(*Hierarchy).AccessData":                  "soemt/internal/mem",
		"soemt/internal/rng.mix":                                      "soemt/internal/rng",
		"soemt/internal/arena.Slice[go.shape.[]soemt/internal/mem.x]": "soemt/internal/arena",
		"runtime.mallocgc":                                            "runtime",
		"internal/runtime/maps.(*Iter).Next":                          "internal/runtime/maps",
		"aeshashbody":                                                 "runtime",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestProfileShares reads a real CPU profile into layer shares.
func TestProfileShares(t *testing.T) {
	p, err := startProfile()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunContext(context.Background(), busySpecs(defaultSeed)[0]); err != nil {
		pprofStop(p)
		t.Fatal(err)
	}
	byPkg, err := p.stop(t.TempDir(), "busy")
	if err != nil {
		t.Fatal(err)
	}
	// The pipeline does most of a busy run's work, whatever the build
	// adds (the race detector's own functions take most samples).
	shares := layerShares(byPkg)
	for l, v := range shares {
		if l != "pipeline" && l != "runtime" && l != "http" && v >= shares["pipeline"] {
			t.Fatalf("layer %s share %v ≥ pipeline's %v in a busy-pair run; packages %v", l, v, shares["pipeline"], byPkg)
		}
	}
	if shares["pipeline"] == 0 {
		t.Fatalf("no pipeline samples in a busy-pair run; packages %v", byPkg)
	}
}
