package spec

import (
	"strings"
	"testing"
	"time"

	"soemt/internal/workload"
)

func validSpec() *Spec {
	return &Spec{
		Name:     "t",
		Seed:     1,
		Duration: time.Second,
		Clients: []Client{{
			Name:    "c",
			Count:   1,
			Rate:    10,
			Arrival: Arrival{Process: ProcPoisson},
			Workloads: []Entry{
				{Pair: "gcc:mcf", F: 0.5, Weight: 1},
			},
		}},
	}
}

func wantErr(t *testing.T, s *Spec, frag string) {
	t.Helper()
	err := s.Validate()
	if err == nil {
		t.Fatalf("Validate accepted invalid spec, wanted error containing %q", frag)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Fatalf("error %q does not mention %q", err, frag)
	}
}

func TestValidateAcceptsGoodSpec(t *testing.T) {
	if err := validSpec().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateActionableErrors(t *testing.T) {
	s := validSpec()
	s.Name = ""
	wantErr(t, s, "name is required")

	s = validSpec()
	s.Duration = 0
	wantErr(t, s, "duration must be positive")

	s = validSpec()
	s.Scale = "huge"
	wantErr(t, s, `scale "huge" unknown`)

	s = validSpec()
	s.Clients = nil
	wantErr(t, s, "at least one client group")

	s = validSpec()
	s.Clients[0].Count = 0
	wantErr(t, s, "count must be >= 1")

	s = validSpec()
	s.Clients[0].Rate = -1
	wantErr(t, s, "rate must be a positive")

	s = validSpec()
	s.Clients[0].Skew = "pareto"
	wantErr(t, s, `skew "pareto" unknown`)

	s = validSpec()
	s.Clients[0].Arrival = Arrival{Process: "lognormal"}
	wantErr(t, s, `process "lognormal" unknown`)

	s = validSpec()
	s.Clients[0].Arrival = Arrival{Process: ProcGamma}
	wantErr(t, s, "gamma requires a positive shape")

	s = validSpec()
	s.Clients[0].Arrival = Arrival{Process: ProcPoisson, Shape: 2}
	wantErr(t, s, "meaningless for poisson")

	s = validSpec()
	s.Clients[0].Workloads[0].Pair = "gcc"
	wantErr(t, s, `pair must be "a:b"`)

	s = validSpec()
	s.Clients[0].Workloads[0] = Entry{Pair: "gcc:mcf", Bench: "art", Weight: 1}
	wantErr(t, s, "exactly one of pair or bench")

	s = validSpec()
	s.Clients[0].Workloads[0] = Entry{Pair: "gcc:nosuch", Weight: 1}
	wantErr(t, s, `unknown profile "nosuch"`)

	s = validSpec()
	s.Clients[0].Workloads[0].F = 1.5
	wantErr(t, s, "f must be in [0, 1]")

	s = validSpec()
	s.Clients[0].Workloads[0].Tier = "turbo"
	wantErr(t, s, `tier "turbo" unknown`)

	s = validSpec()
	s.Clients[0].Workloads[0].Weight = 0
	wantErr(t, s, "weight must be positive")

	s = validSpec()
	s.Clients = append(s.Clients, s.Clients[0])
	wantErr(t, s, "duplicate client name")

	s = validSpec()
	s.Clients[0].Rate = 1e9
	wantErr(t, s, "lower the rates")
}

// A phase overlay that would push the scaled PCold past 1 must be
// rejected at spec load with the profile's own validation message —
// this is the satellite-2 check surfacing through the spec layer.
func TestValidateRejectsBadPhaseOverlay(t *testing.T) {
	s := validSpec()
	s.Clients[0].Workloads[0].Phases = []workload.Phase{
		{Len: 1000, ColdScale: 1e6, IlpScale: 1},
	}
	wantErr(t, s, "phase overlay")
}

func TestValidateInlineProfile(t *testing.T) {
	s := validSpec()
	p, _ := workload.ByName("gcc")
	p.Name = ""
	s.Profiles = map[string]workload.Profile{"custom": p}
	s.Clients[0].Workloads = append(s.Clients[0].Workloads, Entry{Bench: "custom", Weight: 1})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}

	// Inline profiles must themselves validate.
	bad := p
	bad.FracLoad = 1.2
	bad.FracStore = -0.3
	s.Profiles["custom"] = bad
	wantErr(t, s, "profiles[custom]")
}

func TestMatrixAggregatesCells(t *testing.T) {
	s := replaySpec(42)
	cells, err := s.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3 {
		t.Fatalf("got %d cells, want 3 (gcc:mcf, art bench, swim:crafty)", len(cells))
	}
	totalShare, totalReqs := 0.0, 0
	for _, c := range cells {
		totalShare += c.Share
		totalReqs += c.Requests
		if c.Overlaid {
			t.Errorf("cell %s/%s marked overlaid without overlays", c.Pair, c.Bench)
		}
		if c.Scale != "tiny" {
			t.Errorf("cell scale %q, want tiny", c.Scale)
		}
	}
	if totalShare < 0.999 || totalShare > 1.001 {
		t.Fatalf("cell shares sum to %v, want 1", totalShare)
	}
	reqs, _ := s.Schedule()
	if totalReqs != len(reqs) {
		t.Fatalf("cells cover %d requests, schedule has %d", totalReqs, len(reqs))
	}
	// gcc:mcf carries weight 3 of 4 in the dominant group: it must lead.
	if cells[0].Pair != "gcc:mcf" {
		t.Fatalf("dominant cell is %q/%q, want gcc:mcf", cells[0].Pair, cells[0].Bench)
	}
}

func TestSweepPairsSkipsBenchAndOverlays(t *testing.T) {
	s := replaySpec(42)
	pairs, skipped, err := s.SweepPairs()
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 2 || pairs[0] != "gcc:mcf" || pairs[1] != "swim:crafty" {
		t.Fatalf("pairs = %v, want [gcc:mcf swim:crafty]", pairs)
	}
	if skipped != 1 {
		t.Fatalf("skipped = %d, want 1 (the art bench cell)", skipped)
	}
}

func TestReplayable(t *testing.T) {
	if err := replaySpec(1).Replayable(); err != nil {
		t.Fatal(err)
	}
	s := replaySpec(1)
	s.Clients[0].Workloads[0].Phases = []workload.Phase{{Len: 10, ColdScale: 1, IlpScale: 1}}
	err := s.Replayable()
	if err == nil || !strings.Contains(err.Error(), "-expand") {
		t.Fatalf("overlay spec should not be replayable; got %v", err)
	}

	s = replaySpec(1)
	p, _ := workload.ByName("gcc")
	s.Profiles = map[string]workload.Profile{"inline": p}
	s.Clients[0].Workloads[0] = Entry{Bench: "inline", Weight: 1}
	err = s.Replayable()
	if err == nil || !strings.Contains(err.Error(), "inline") {
		t.Fatalf("inline-profile spec should not be replayable; got %v", err)
	}
}

func TestCellProfilesAppliesOverlay(t *testing.T) {
	s := replaySpec(1)
	overlay := []workload.Phase{{Len: 5000, ColdScale: 0.5, IlpScale: 1.2}}
	s.Clients[0].Workloads[0].Phases = overlay
	cells, err := s.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	var target Cell
	for _, c := range cells {
		if c.Pair == "gcc:mcf" {
			target = c
		}
	}
	if !target.Overlaid {
		t.Fatal("gcc:mcf cell should be marked overlaid")
	}
	prof, err := s.overlaid("gcc", overlay)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := workload.ByName("gcc")
	if len(prof.Phases) != len(base.Phases)+1 {
		t.Fatalf("overlay not appended: %d phases, want %d", len(prof.Phases), len(base.Phases)+1)
	}
	last := prof.Phases[len(prof.Phases)-1]
	if last != overlay[0] {
		t.Fatalf("appended phase %+v, want %+v", last, overlay[0])
	}
}
