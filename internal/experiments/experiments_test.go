package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"soemt/internal/sim"
)

// testOptions shrinks runs so the experiment drivers stay fast in unit
// tests; shape assertions at realistic scale live in the bench harness.
func testOptions() Options {
	return Options{
		Machine:    sim.DefaultMachine(),
		Scale:      sim.Scale{CacheWarm: 50_000, Warm: 50_000, Measure: 200_000, MaxCycles: 40_000_000},
		SameOffset: 50_000,
	}
}

func TestPairsValid(t *testing.T) {
	if err := validatePairs(); err != nil {
		t.Fatal(err)
	}
	ps := Pairs()
	if len(ps) != 16 {
		t.Fatalf("paper uses 16 combinations, got %d", len(ps))
	}
	same := 0
	for _, p := range ps {
		if p.Same() {
			same++
		}
	}
	if same != 8 {
		t.Fatalf("paper uses 8 same-benchmark pairs, got %d", same)
	}
	if (Pair{"a", "b"}).Name() != "a:b" {
		t.Fatal("pair name format")
	}
}

func TestUnknownProfileError(t *testing.T) {
	e := &unknownProfileError{name: "nope"}
	if !strings.Contains(e.Error(), "nope") {
		t.Fatal("error message")
	}
}

func TestExpTable2Output(t *testing.T) {
	var b strings.Builder
	if err := ExpTable2(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"F=0", "F=1/2", "F=1", "1667", "9.21", "0.11"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 2 output missing %q", want)
		}
	}
}

func TestExpFig3Output(t *testing.T) {
	var b strings.Builder
	if err := ExpFig3(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "throughput delta") {
		t.Error("missing plot title")
	}
	if !strings.Contains(out, "delta@F=1") {
		t.Error("missing summary table")
	}
}

func TestExpTable3Output(t *testing.T) {
	var b strings.Builder
	if err := ExpTable3(&b, testOptions()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "300 cycles") {
		t.Error("missing memory latency row")
	}
}

func TestRunnerCachesReferences(t *testing.T) {
	r := NewRunner(testOptions())
	a, err := r.STRefContext(context.Background(), "eon")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.STRefContext(context.Background(), "eon")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("STRef not cached")
	}
	if _, err := r.STRefContext(context.Background(), "not-a-benchmark"); err == nil {
		t.Fatal("unknown profile must error")
	}
}

func TestRunPairCachesAndComputes(t *testing.T) {
	r := NewRunner(testOptions())
	pr, err := r.RunPairContext(context.Background(), Pair{"gcc", "eon"})
	if err != nil {
		t.Fatal(err)
	}
	pr2, err := r.RunPairContext(context.Background(), Pair{"gcc", "eon"})
	if err != nil {
		t.Fatal(err)
	}
	if pr != pr2 {
		t.Fatal("RunPair not cached")
	}
	for _, f := range FLevels {
		if pr.ByF[f] == nil {
			t.Fatalf("missing result for F=%v", f)
		}
		fv := pr.Fairness(f)
		if fv < 0 || fv > 1 {
			t.Fatalf("fairness out of range at F=%v: %v", f, fv)
		}
	}
	if pr.ST[0] <= 0 || pr.ST[1] <= 0 {
		t.Fatal("missing ST references")
	}
	// Enforcement must help the pair's fairness overall.
	if pr.Fairness(1) <= pr.Fairness(0) {
		t.Errorf("F=1 fairness %.3f not above F=0 %.3f", pr.Fairness(1), pr.Fairness(0))
	}
	if pr.NormalizedThroughput(0) != 1 {
		t.Error("normalized throughput at F=0 must be 1")
	}
}

func TestExperimentDriversOnSubset(t *testing.T) {
	r := NewRunner(testOptions())
	// Build a small matrix: two contrasting pairs.
	var runs []*PairRun
	for _, p := range []Pair{{"gcc", "eon"}, {"swim", "swim"}} {
		pr, err := r.RunPairContext(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, pr)
	}

	var b strings.Builder
	sum6, err := ExpFig6(&b, runs)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum6.AvgSpeedupByF) != len(FLevels) {
		t.Fatal("fig6 summary incomplete")
	}
	if !strings.Contains(b.String(), "gcc:eon") {
		t.Error("fig6 table missing pair")
	}

	b.Reset()
	sum7, err := ExpFig7(&b, runs)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range FLevels[1:] {
		if _, ok := sum7.AvgDegradationByF[f]; !ok {
			t.Fatalf("fig7 missing degradation for F=%v", f)
		}
	}

	b.Reset()
	sum8, err := ExpFig8(&b, runs)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum8.AchievedByF[0]) != len(runs) {
		t.Fatal("fig8 row count")
	}
	for _, f := range FLevels {
		if sum8.AvgTruncatedByF[f] < 0 || sum8.AvgTruncatedByF[f] > 1 {
			t.Fatalf("fig8 truncated mean out of range at F=%v", f)
		}
		if f > 0 && sum8.AvgTruncatedByF[f] > f+1e-9 {
			t.Fatalf("truncated mean %v exceeds target %v", sum8.AvgTruncatedByF[f], f)
		}
	}

	b.Reset()
	if err := ExpExample1Context(context.Background(), &b, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "achieved fairness") {
		t.Error("example1 missing fairness line")
	}

	b.Reset()
	d5, err := ExpFig5Context(context.Background(), &b, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(d5.Cycles) == 0 {
		t.Fatal("fig5 produced no windows")
	}
	if d5.RealST[0] <= 0 || d5.RealST[1] <= 0 {
		t.Fatal("fig5 missing ST references")
	}
	for _, v := range d5.FairF {
		if v < 0 || v > 1 {
			t.Fatal("fig5 window fairness out of range")
		}
	}

	b.Reset()
	ts, err := ExpTimeShareContext(context.Background(), &b, r)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ts.ModelTimeShareFairness-0.6) > 0.08 {
		t.Errorf("analytical time-share fairness %.3f, paper says ~0.6", ts.ModelTimeShareFairness)
	}
	if ts.ModelMechanismFairness < 0.99 {
		t.Errorf("analytical mechanism fairness %.3f, want 1", ts.ModelMechanismFairness)
	}
	if len(ts.SimRows) != 4 {
		t.Fatalf("expected 4 time-share rows, got %d", len(ts.SimRows))
	}
	small, large := ts.SimRows[0], ts.SimRows[len(ts.SimRows)-1]
	// §6: small quotas switch heavily (throughput cost), large quotas
	// lose fairness.
	if small.SwitchesPer1k <= large.SwitchesPer1k {
		t.Errorf("small quota should switch more: %.2f vs %.2f/1k",
			small.SwitchesPer1k, large.SwitchesPer1k)
	}
	if small.IPC >= large.IPC {
		t.Errorf("small quota should cost throughput: %.3f vs %.3f IPC", small.IPC, large.IPC)
	}
	if large.Fairness >= small.Fairness {
		t.Errorf("large quota should lose fairness: %.3f vs %.3f", large.Fairness, small.Fairness)
	}
	// The mechanism achieves its fairness with far fewer switches than
	// the small-quota time share.
	if ts.SimMechanismIPC <= small.IPC {
		t.Errorf("mechanism IPC %.3f should beat 400-cycle time share %.3f",
			ts.SimMechanismIPC, small.IPC)
	}
}

func TestFLabels(t *testing.T) {
	cases := map[float64]string{0: "F=0", 0.25: "F=1/4", 0.5: "F=1/2", 1: "F=1", 0.3: "F=0.30"}
	for f, want := range cases {
		if got := fLabel(f); got != want {
			t.Errorf("fLabel(%v) = %q, want %q", f, got, want)
		}
	}
}

func TestPearson(t *testing.T) {
	if p := pearson([]float64{1, 2, 3}, []float64{2, 4, 6}); math.Abs(p-1) > 1e-9 {
		t.Errorf("perfect correlation = %v", p)
	}
	if p := pearson([]float64{1, 2, 3}, []float64{3, 2, 1}); math.Abs(p+1) > 1e-9 {
		t.Errorf("perfect anticorrelation = %v", p)
	}
	if pearson([]float64{1, 1}, []float64{2, 3}) != 0 {
		t.Error("zero-variance input must give 0")
	}
	if pearson([]float64{1}, []float64{2}) != 0 {
		t.Error("short input must give 0")
	}
}

func TestAsciiPlot(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	out := asciiPlot("title", xs, []plotSeries{
		{Label: "up", Marker: 'u', Y: []float64{0, 1, 2, 3}},
		{Label: "down", Marker: 'd', Y: []float64{3, 2, 1, 0}},
	}, 8, 40)
	if !strings.Contains(out, "title") || !strings.Contains(out, "u = up") {
		t.Fatalf("plot output malformed:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 10 {
		t.Fatal("plot too short")
	}
	// Extremes must land on first and last grid rows.
	if !strings.ContainsRune(lines[1], 'd') && !strings.ContainsRune(lines[1], 'u') {
		t.Error("no marker on the top row")
	}
}

func TestAsciiPlotDegenerate(t *testing.T) {
	out := asciiPlot("flat", []float64{0, 1}, []plotSeries{
		{Label: "c", Marker: 'c', Y: []float64{5, 5}},
	}, 6, 20)
	if !strings.Contains(out, "c = c") {
		t.Fatal("flat series must still render")
	}
	out = asciiPlot("empty", []float64{0, 1}, []plotSeries{
		{Label: "nan", Marker: 'n', Y: []float64{math.NaN(), math.Inf(1)}},
	}, 6, 20)
	if !strings.Contains(out, "no data") {
		t.Fatal("all-invalid series must report no data")
	}
}

func TestDefaultAndPaperOptions(t *testing.T) {
	d := DefaultOptions()
	if d.Scale.Measure == 0 || d.SameOffset == 0 {
		t.Fatal("default options incomplete")
	}
	p := PaperOptions()
	if p.Scale.Measure != 6_000_000 || p.SameOffset != 1_000_000 {
		t.Fatal("paper options must match §4.1")
	}
}

func TestWriteCSV(t *testing.T) {
	r := NewRunner(testOptions())
	pr, err := r.RunPairContext(context.Background(), Pair{"gcc", "eon"})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteCSV(&b, []*PairRun{pr}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 1+len(FLevels) {
		t.Fatalf("csv rows = %d, want header + %d", len(lines), len(FLevels))
	}
	if !strings.HasPrefix(lines[0], "pair,same,F,") {
		t.Errorf("csv header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "gcc:eon,false,0,") {
		t.Errorf("csv row = %q", lines[1])
	}
}
