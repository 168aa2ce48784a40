package perf

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"soemt/internal/sim"
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

// withSpeedup records a scenario's two engine entries and its
// reference/fast-forward speedup, as RunSuite does.
func withSpeedup(r *Report, scenario string, refSecs, ffSecs float64) {
	r.Entries = append(r.Entries,
		Entry{Scenario: scenario, Engine: "cycle-by-cycle", Seconds: refSecs, SimCycles: 1000},
		Entry{Scenario: scenario, Engine: "fast-forward", Seconds: ffSecs, SimCycles: 1000})
	r.Speedups[scenario] = refSecs / ffSecs
}

// TestSpeedupDerivation pins how paired rounds derive a ratio: the two
// arms run back to back, the first arm alternating, and the result is
// the median of the per-round arms[0]/arms[1] ratios (3 here), not the
// ratio of the per-arm medians (4/2).
func TestSpeedupDerivation(t *testing.T) {
	secs := map[string][]float64{"ref": {3, 8, 4}, "ff": {1, 2, 4}} // ratios 3, 4, 1
	var order []string
	measure := func(arm string) (Entry, error) {
		s := secs[arm][0]
		secs[arm] = secs[arm][1:]
		order = append(order, arm)
		return Entry{Engine: arm, Seconds: s}, nil
	}
	ratio, runs, err := pairedRounds(context.Background(), 3, [2]string{"ref", "ff"}, measure)
	if err != nil {
		t.Fatal(err)
	}
	if ratio != 3 {
		t.Fatalf("speedup = %v, want the median per-round ratio 3", ratio)
	}
	if got := strings.Join(order, " "); got != "ref ff ff ref ref ff" {
		t.Fatalf("run order %q does not alternate the first arm", got)
	}
	if len(runs[0]) != 3 || len(runs[1]) != 3 || runs[0][1].Seconds != 8 || runs[1][2].Seconds != 4 {
		t.Fatalf("entries not kept per arm in round order: %+v", runs)
	}
	zero := func(arm string) (Entry, error) { return Entry{Engine: arm}, nil }
	if _, _, err := pairedRounds(context.Background(), 1, [2]string{"ref", "ff"}, zero); err == nil {
		t.Fatal("a zero wall time in the denominator arm gave a ratio")
	}
}

// TestRunSuitePairsEngines runs one scenario at a tiny scale with
// iters < 1, which means one paired round: the report gets one entry
// per engine, reference first, and the scenario's speedup.
func TestRunSuitePairsEngines(t *testing.T) {
	scale := sim.Scale{CacheWarm: 2_000, Warm: 1_000, Measure: 4_000, MaxCycles: 1_000_000}
	r := NewReport("test")
	var lines []string
	if err := RunSuite(context.Background(), r, DefaultSuite(scale)[:1], 0, func(l string) { lines = append(lines, l) }); err != nil {
		t.Fatal(err)
	}
	if len(r.Entries) != 2 || r.Entries[0].Engine != Engines[0] || r.Entries[1].Engine != Engines[1] {
		t.Fatalf("entries = %+v, want one per engine in Engines order", r.Entries)
	}
	if sp := r.Speedups[r.Entries[0].Scenario]; sp <= 0 || len(lines) != 3 {
		t.Fatalf("speedup %v, %d progress lines; want a positive speedup and 3 lines", sp, len(lines))
	}
}

func TestWriteNumberedAndLoadRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bench") // exercise MkdirAll
	r := NewReport("tiny")
	withSpeedup(r, "pair", 2.0, 1.0)

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
	withSpeedup(base, "pair", 4.0, 1.0) // 4.0x baseline

	ok := NewReport("tiny")
	withSpeedup(ok, "pair", 3.5, 1.0) // 3.5x: within 20%
	if err := Compare(ok, base, 0.20); err != nil {
		t.Fatalf("within-tolerance report rejected: %v", err)
	}

	bad := NewReport("tiny")
	withSpeedup(bad, "pair", 2.0, 1.0) // 2.0x: regressed
	err := Compare(bad, base, 0.20)
	if err == nil || !strings.Contains(err.Error(), "pair") {
		t.Fatalf("regression not reported: %v", err)
	}

	// A disjoint suite must not silently pass.
	other := NewReport("tiny")
	withSpeedup(other, "elsewhere", 1.0, 1.0)
	if err := Compare(other, base, 0.20); err == nil {
		t.Fatal("empty scenario intersection passed the gate")
	}
}
