package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"soemt/internal/sim"
)

// The simulated Fig 6–8 matrix at tiny scale, pinned cell by cell: the
// sha256 of every distinct simulation's canonical Result JSON (16 pairs
// × 4 F levels plus the 14 single-thread references), recomputed
// through Runner.RunAllContext. EXPERIMENTS.md's tiny-scale tables are
// derived from exactly these results, so a change that moves any cell
// moves a published number.
//
// Regenerate (only after an intentional, understood result change):
//
//	SOEMT_REGEN_GOLDEN=1 go test ./internal/experiments -run TestMatrixGoldenTiny

const matrixGoldenPath = "testdata/matrix_tiny.json"

// matrixTinyOptions are soefig's -scale tiny options.
func matrixTinyOptions() Options {
	opts := DefaultOptions()
	opts.Scale = sim.TinyScale()
	opts.SameOffset = 50_000
	return opts
}

var tinyMatrixOnce struct {
	sync.Once
	runs []*PairRun
	r    *Runner
	err  error
}

// tinyMatrix runs the tiny-scale matrix through a fresh runner once
// per test binary and returns it with that runner.
func tinyMatrix(t *testing.T) ([]*PairRun, *Runner) {
	t.Helper()
	m := &tinyMatrixOnce
	m.Do(func() {
		m.r = NewRunner(matrixTinyOptions())
		m.r.Workers = 2
		m.runs, m.err = m.r.RunAllContext(context.Background())
	})
	if m.err != nil {
		t.Fatal(m.err)
	}
	return m.runs, m.r
}

type matrixGolden struct {
	Comment    string            `json:"_comment"`
	Scale      sim.Scale         `json:"scale"`
	SameOffset uint64            `json:"same_offset"`
	Cells      map[string]string `json:"cells"`
}

// matrixCells digests every distinct simulation of the matrix, keyed
// "ST <profile>" and "<pair> F=<level>".
func matrixCells(t *testing.T, runs []*PairRun) map[string]string {
	t.Helper()
	cells := make(map[string]string)
	put := func(label string, res *sim.Result) {
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		sum := sha256.Sum256(b)
		cells[label] = hex.EncodeToString(sum[:])
	}
	for _, pr := range runs {
		for i, name := range []string{pr.Pair.A, pr.Pair.B} {
			put("ST "+name, pr.STRuns[i])
		}
		for _, f := range FLevels {
			put(fmt.Sprintf("%s F=%v", pr.Pair.Name(), f), pr.ByF[f])
		}
	}
	return cells
}

// TestMatrixGoldenTiny recomputes the tiny-scale matrix and compares
// every cell with the committed digests, then checks the Fig 6 averages
// EXPERIMENTS.md reports for tiny scale.
func TestMatrixGoldenTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full 78-simulation matrix")
	}
	opts := matrixTinyOptions()
	runs, _ := tinyMatrix(t)
	got := matrixCells(t, runs)
	if len(got) != 78 {
		t.Fatalf("matrix has %d distinct cells, want 78", len(got))
	}

	if os.Getenv("SOEMT_REGEN_GOLDEN") != "" {
		out, err := json.MarshalIndent(matrixGolden{
			Comment:    "Tiny-scale Fig 6-8 matrix result digests; regenerate with SOEMT_REGEN_GOLDEN=1 go test ./internal/experiments -run TestMatrixGoldenTiny",
			Scale:      opts.Scale,
			SameOffset: opts.SameOffset,
			Cells:      got,
		}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(matrixGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(matrixGoldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cells)", matrixGoldenPath, len(got))
		return
	}

	raw, err := os.ReadFile(matrixGoldenPath)
	if err != nil {
		t.Fatalf("missing %s (regenerate with SOEMT_REGEN_GOLDEN=1): %v", matrixGoldenPath, err)
	}
	var want matrixGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse %s: %v", matrixGoldenPath, err)
	}
	if want.Scale != opts.Scale || want.SameOffset != opts.SameOffset {
		t.Fatalf("golden options %+v/%d do not match the test's %+v/%d; regenerate",
			want.Scale, want.SameOffset, opts.Scale, opts.SameOffset)
	}
	labels := make([]string, 0, len(want.Cells))
	for l := range want.Cells {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		if g, ok := got[l]; !ok {
			t.Errorf("cell %q missing from the recomputed matrix", l)
		} else if g != want.Cells[l] {
			t.Errorf("cell %q moved: %s, golden %s", l, g, want.Cells[l])
		}
	}
	if len(got) != len(want.Cells) {
		t.Errorf("recomputed %d cells, golden has %d", len(got), len(want.Cells))
	}

	// EXPERIMENTS.md, Figure 6, "Measured (tiny)" column.
	sum, err := ExpFig6(io.Discard, runs)
	if err != nil {
		t.Fatal(err)
	}
	for f, pct := range map[float64]float64{0: 24.0, 0.25: 21.9, 0.5: 20.0, 1: 18.0} {
		got := math.Round((sum.AvgSpeedupByF[f]-1)*1000) / 10
		if got != pct {
			t.Errorf("Fig 6 average speedup at F=%v: %+.1f%%, EXPERIMENTS.md reports %+.1f%%", f, got, pct)
		}
	}
}

// TestSiblingsMatrixReuseCount pins what the per-pair sibling scopes
// save on the tiny matrix: in each of the 16 pairs the first F level
// seeds the scope and the other three reuse it — either restoring the
// fork snapshot or, when their quotas agree with a stored run, its
// whole Result — so exactly 48 of the 64 pair runs reuse something.
func TestSiblingsMatrixReuseCount(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full 78-simulation matrix")
	}
	_, r := tinyMatrix(t)
	reg := r.Observability()
	prefix := reg.Counter("sim.siblings.prefix_reuse").Load()
	result := reg.Counter("sim.siblings.result_reuse").Load()
	if prefix+result != 48 {
		t.Errorf("prefix_reuse %d + result_reuse %d = %d, want 48", prefix, result, prefix+result)
	}
	if m := r.Metrics(); m.RunsStarted != 78 {
		t.Errorf("runs_started = %d, want 78 (one per distinct spec)", m.RunsStarted)
	}
	t.Logf("prefix_reuse=%d result_reuse=%d", prefix, result)
}
