package perf

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestMemDeltaClampsWrap pins the MemStats delta clamp: a counter that
// goes backwards between snapshots must yield 0, not a value near
// 2^64.
func TestMemDeltaClampsWrap(t *testing.T) {
	if got := memDelta(100, 250); got != 0 {
		t.Fatalf("memDelta(100, 250) = %d, want 0 (clamped)", got)
	}
	if got := memDelta(250, 100); got != 150 {
		t.Fatalf("memDelta(250, 100) = %d, want 150", got)
	}
	if got := memDelta(^uint64(0)-1, ^uint64(0)); got != 0 {
		t.Fatalf("near-wrap delta = %d, want 0", got)
	}
}

// TestRateGuardsDegenerateElapsed pins the division guard: zero,
// negative or denormal-small elapsed times must produce 0, never
// Inf/NaN — an Inf rate makes the whole report unmarshalable.
func TestRateGuardsDegenerateElapsed(t *testing.T) {
	for _, secs := range []float64{0, -1, math.SmallestNonzeroFloat64} {
		got := rate(1_000_000, secs)
		if math.IsInf(got, 0) || math.IsNaN(got) {
			t.Fatalf("rate(1e6, %g) = %v, want finite", secs, got)
		}
		if secs <= 0 && got != 0 {
			t.Fatalf("rate(1e6, %g) = %v, want 0", secs, got)
		}
	}
	if got := rate(500, 2); got != 250 {
		t.Fatalf("rate(500, 2) = %v, want 250", got)
	}
}

// TestMeasureSurvivesMidRunGC runs Measure around a workload that
// forces garbage collections mid-run: the alloc deltas must stay sane
// (no wrap into 2^64-ish values) and the rates finite.
func TestMeasureSurvivesMidRunGC(t *testing.T) {
	e, err := Measure("gc-torture", "cycle-by-cycle", func() (uint64, uint64, error) {
		sink := make([][]byte, 0, 64)
		for i := 0; i < 16; i++ {
			sink = append(sink, make([]byte, 1<<16))
			runtime.GC()
		}
		_ = sink
		return 1000, 500, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.AllocBytes > 1<<40 || e.AllocObjects > 1<<40 {
		t.Fatalf("alloc deltas wrapped: bytes=%d objects=%d", e.AllocBytes, e.AllocObjects)
	}
	if e.AllocBytes < 16*(1<<16) {
		t.Fatalf("alloc bytes %d below the %d the run visibly allocated", e.AllocBytes, 16*(1<<16))
	}
	if math.IsInf(e.CyclesPerSec, 0) || math.IsNaN(e.CyclesPerSec) ||
		math.IsInf(e.InstrsPerSec, 0) || math.IsNaN(e.InstrsPerSec) {
		t.Fatalf("non-finite rates: %v cyc/s, %v instr/s", e.CyclesPerSec, e.InstrsPerSec)
	}
}

// TestMeasureNTakesMedian runs a deliberately bimodal timing workload
// and asserts the reported entry is neither the fastest nor the
// slowest run.
func TestMeasureNTakesMedian(t *testing.T) {
	calls := 0
	e, err := MeasureN("median", "cycle-by-cycle", 3, func() (uint64, uint64, error) {
		calls++
		return uint64(calls), 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("MeasureN ran fn %d times, want 3", calls)
	}
	// The median entry is one of the three runs; its cycle count
	// identifies which. All three wall times are ~equal, so any index
	// is acceptable — what matters is a single entry came back intact.
	if e.SimCycles < 1 || e.SimCycles > 3 {
		t.Fatalf("median entry cycles = %d, want 1..3", e.SimCycles)
	}
	if _, err := MeasureN("median", "cycle-by-cycle", 0, func() (uint64, uint64, error) {
		return 1, 1, nil
	}); err != nil {
		t.Fatalf("iters<1 should degrade to 1 run: %v", err)
	}
}

// TestResolveBaseline pins the directory resolution rule: newest
// (highest-numbered) BENCH_<n>.json wins, including n >= 10; plain
// files pass through; an empty directory errors.
func TestResolveBaseline(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_1.json", "BENCH_2.json", "BENCH_10.json", "BENCH_x.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ResolveBaseline(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(got) != "BENCH_10.json" {
		t.Fatalf("resolved %s, want BENCH_10.json", got)
	}

	file := filepath.Join(dir, "BENCH_2.json")
	if got, err := ResolveBaseline(file); err != nil || got != file {
		t.Fatalf("file passthrough: got %s, %v", got, err)
	}

	if _, err := ResolveBaseline(t.TempDir()); err == nil {
		t.Fatal("empty directory resolved to a baseline")
	}
	if _, err := ResolveBaseline(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing path resolved to a baseline")
	}
}

func addRun(t *testing.T, r *Report, scenario, engine string, secs float64) {
	t.Helper()
	r.Add(Entry{Scenario: scenario, Engine: engine, Seconds: secs, SimCycles: 1000})
}

func TestSpeedupDerivation(t *testing.T) {
	r := NewReport("tiny")
	addRun(t, r, "pair", "cycle-by-cycle", 3.0)
	if len(r.Speedups) != 0 {
		t.Fatalf("speedup derived from a single engine: %v", r.Speedups)
	}
	addRun(t, r, "pair", "fast-forward", 1.0)
	if got := r.Speedups["pair"]; got != 3.0 {
		t.Fatalf("speedup = %v, want 3.0", got)
	}
}

func TestWriteNumberedAndLoadRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bench") // exercise MkdirAll
	r := NewReport("tiny")
	addRun(t, r, "pair", "cycle-by-cycle", 2.0)
	addRun(t, r, "pair", "fast-forward", 1.0)

	p1, err := r.WriteNumbered(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(p1) != "BENCH_1.json" {
		t.Fatalf("first report at %s, want BENCH_1.json", p1)
	}
	p2, err := r.WriteNumbered(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(p2) != "BENCH_2.json" {
		t.Fatalf("second report at %s, want BENCH_2.json", p2)
	}

	back, err := Load(p1)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Entries) != 2 || back.Scale != "tiny" {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if got := back.Speedups["pair"]; got != 2.0 {
		t.Fatalf("round-tripped speedup = %v, want 2.0", got)
	}
}

func TestCompare(t *testing.T) {
	base := NewReport("tiny")
	addRun(t, base, "pair", "cycle-by-cycle", 4.0)
	addRun(t, base, "pair", "fast-forward", 1.0) // 4.0x baseline

	ok := NewReport("tiny")
	addRun(t, ok, "pair", "cycle-by-cycle", 3.5)
	addRun(t, ok, "pair", "fast-forward", 1.0) // 3.5x: within 20%
	if err := Compare(ok, base, 0.20); err != nil {
		t.Fatalf("within-tolerance report rejected: %v", err)
	}

	bad := NewReport("tiny")
	addRun(t, bad, "pair", "cycle-by-cycle", 2.0)
	addRun(t, bad, "pair", "fast-forward", 1.0) // 2.0x: regressed
	err := Compare(bad, base, 0.20)
	if err == nil || !strings.Contains(err.Error(), "pair") {
		t.Fatalf("regression not reported: %v", err)
	}

	// A disjoint suite must not silently pass.
	other := NewReport("tiny")
	addRun(t, other, "elsewhere", "cycle-by-cycle", 1.0)
	addRun(t, other, "elsewhere", "fast-forward", 1.0)
	if err := Compare(other, base, 0.20); err == nil {
		t.Fatal("empty scenario intersection passed the gate")
	}
}
