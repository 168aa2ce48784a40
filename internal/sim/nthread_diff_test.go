package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"soemt/internal/core"
	"soemt/internal/pipeline"
)

// Differential regression suite (ISSUE 9): the N-thread generalization
// of the controller and the quota policies must leave every N <= 2 code
// path — and every N-thread path whose semantics predate the
// generalization (EventOnly rotation, TimeShare quotas) — bit-identical
// to the seed pair engine. The seed's results are pinned as sha256
// digests of the canonical Result JSON, captured from the pre-refactor
// engine and committed in testdata/seed_golden.json; both the
// fast-forward and the cycle-by-cycle engine must still reproduce them
// exactly, and the spec fingerprints must not move either (a moved
// fingerprint would silently abandon every cached result and BENCH
// baseline).
//
// Regenerate (only after an intentional, understood result change):
//
//	SOEMT_REGEN_GOLDEN=1 go test ./internal/sim -run TestNThreadSeedDifferential
//
// Cells deliberately NOT pinned here: Fairness/GroupedFairness at
// N >= 3 (the Eq. 9 wait term is N-aware by design, see DESIGN.md §15)
// and the new zoo policies, which have no seed baseline. Those paths
// are covered relatively by TestFastForwardEquivalenceMatrix.

const seedGoldenPath = "testdata/seed_golden.json"

// diffScale is smaller than ffScale: every cell runs twice per engine
// family and the suite must stay cheap enough for -race in CI.
func diffScale() Scale {
	return Scale{CacheWarm: 30_000, Warm: 15_000, Measure: 60_000, MaxCycles: 10_000_000}
}

func diffSpec(names []string, policy core.Policy, mutate func(*Spec)) Spec {
	s := ffSpec(names, policy, mutate)
	s.Scale = diffScale()
	return s
}

// diffCells is the (policy, spec) matrix of seed-stable cells: the full
// §9 equivalence-matrix shapes at N <= 2 plus the N = 4 shapes whose
// results the generalization must not move.
func diffCells() map[string]Spec {
	return map[string]Spec{
		"single-missy-swim":        diffSpec([]string{"swim"}, core.EventOnly{}, nil),
		"single-nonmissy-eon":      diffSpec([]string{"eon"}, core.EventOnly{}, nil),
		"pair-missy-swim-mcf-F0":   diffSpec([]string{"swim", "mcf"}, core.EventOnly{}, nil),
		"pair-nonmissy-gcc-eon-F1": diffSpec([]string{"gcc", "eon"}, core.Fairness{F: 1}, nil),
		"pair-mixed-mcf-gzip-F025": diffSpec([]string{"mcf", "gzip"}, core.Fairness{F: 0.25}, nil),
		"pair-same-swim-swim-F05":  diffSpec([]string{"swim", "swim"}, core.Fairness{F: 0.5}, nil),
		"pair-timeshare-art-crafty": diffSpec([]string{"art", "crafty"},
			core.TimeShare{QuotaCycles: 20_000}, nil),
		"pair-events-swim-gcc": diffSpec([]string{"swim", "gcc"}, core.Fairness{F: 1}, func(s *Spec) {
			s.Threads[0].Events = []pipeline.InjectedStall{
				{AtInstr: 10_000, StallCycles: 4_000},
				{AtInstr: 40_000, StallCycles: 12_000},
			}
			s.Threads[1].Events = []pipeline.InjectedStall{
				{AtInstr: 25_000, StallCycles: 7_500},
			}
		}),
		"pair-measure-misslat-l1switch": diffSpec([]string{"mcf", "eon"}, core.Fairness{F: 1}, func(s *Spec) {
			s.Machine.Controller.MeasureMissLat = true
			s.Machine.Controller.SwitchOnL1Miss = true
		}),
		"pair-countall-smooth-naive": diffSpec([]string{"swim", "vpr"}, core.Fairness{F: 0.5}, func(s *Spec) {
			s.Machine.Controller.CountAllMisses = true
			s.Machine.Controller.SmoothAlpha = 0.4
			s.Machine.Controller.NaiveDeficit = true
		}),
		"quad-event-only-mixed": diffSpec([]string{"gcc", "eon", "swim", "gzip"}, core.EventOnly{}, nil),
		"quad-timeshare-mixed": diffSpec([]string{"gcc", "mcf", "eon", "crafty"},
			core.TimeShare{QuotaCycles: 20_000}, nil),
	}
}

type goldenCell struct {
	Fingerprint string `json:"fingerprint"` // sha256 of FingerprintJSON
	FastForward string `json:"ff"`          // sha256 of Result JSON, fast-forward engine
	CycleByCyle string `json:"ref"`         // sha256 of Result JSON, cycle-by-cycle engine
}

type goldenFile struct {
	Comment string                `json:"_comment"`
	Scale   Scale                 `json:"scale"`
	Cells   map[string]goldenCell `json:"cells"`
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func specFingerprintHex(t *testing.T, s Spec) string {
	t.Helper()
	payload, err := s.FingerprintJSON()
	if err != nil {
		t.Fatalf("fingerprint: %v", err)
	}
	return sha256Hex(payload)
}

func runCellHashes(t *testing.T, spec Spec) goldenCell {
	t.Helper()
	cell := goldenCell{Fingerprint: specFingerprintHex(t, spec)}
	ff := spec
	ff.Engine = "fast-forward"
	ffRes, err := Run(ff)
	if err != nil {
		t.Fatalf("fast-forward run: %v", err)
	}
	cell.FastForward = sha256Hex(mustResultJSON(t, ffRes))
	ref := spec
	ref.Engine = "cycle-by-cycle"
	refRes, err := Run(ref)
	if err != nil {
		t.Fatalf("cycle-by-cycle run: %v", err)
	}
	cell.CycleByCyle = sha256Hex(mustResultJSON(t, refRes))
	return cell
}

// seedGoldenComment heads testdata/seed_golden.json.
const seedGoldenComment = "Seed-engine result digests for the N-thread differential suite; regenerate with SOEMT_REGEN_GOLDEN=1 go test ./internal/sim -run TestNThreadSeedDifferential"

// TestNThreadSeedDifferential recomputes every cell on both engines and
// compares against the committed seed digests.
func TestNThreadSeedDifferential(t *testing.T) {
	verifyGolden(t, seedGoldenPath, seedGoldenComment, diffCells())
}

// verifyGolden recomputes every cell on both engines and compares the
// digests with the golden file at path. With SOEMT_REGEN_GOLDEN set it
// rewrites the file, headed by comment, instead.
func verifyGolden(t *testing.T, path, comment string, cells map[string]Spec) {
	if os.Getenv("SOEMT_REGEN_GOLDEN") != "" {
		regenGolden(t, path, comment, cells)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing %s (regenerate with SOEMT_REGEN_GOLDEN=1): %v", path, err)
	}
	var golden goldenFile
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	if golden.Scale != diffScale() {
		t.Fatalf("golden scale %+v does not match diffScale %+v; regenerate", golden.Scale, diffScale())
	}
	if len(golden.Cells) != len(cells) {
		t.Fatalf("golden has %d cells, suite has %d; regenerate", len(golden.Cells), len(cells))
	}
	for name, spec := range cells {
		name, spec := name, spec
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			want, ok := golden.Cells[name]
			if !ok {
				t.Fatalf("cell %q missing from %s; regenerate", name, path)
			}
			got := runCellHashes(t, spec)
			if got.Fingerprint != want.Fingerprint {
				t.Errorf("spec fingerprint moved: %s, golden %s — cached results and BENCH baselines would be abandoned",
					got.Fingerprint, want.Fingerprint)
			}
			if got.FastForward != want.FastForward {
				t.Errorf("fast-forward result diverged from the golden digest: %s, golden %s",
					got.FastForward, want.FastForward)
			}
			if got.CycleByCyle != want.CycleByCyle {
				t.Errorf("cycle-by-cycle result diverged from the golden digest: %s, golden %s",
					got.CycleByCyle, want.CycleByCyle)
			}
		})
	}
}

func regenGolden(t *testing.T, path, comment string, cells map[string]Spec) {
	golden := goldenFile{
		Comment: comment,
		Scale:   diffScale(),
		Cells:   make(map[string]goldenCell, len(cells)),
	}
	names := make([]string, 0, len(cells))
	for name := range cells {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		golden.Cells[name] = runCellHashes(t, cells[name])
		t.Logf("captured %s: %+v", name, golden.Cells[name])
	}
	out, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d cells)", path, len(cells))
}
