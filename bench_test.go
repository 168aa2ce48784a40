// Benchmarks regenerating every table and figure of the paper
// (see DESIGN.md §4 for the experiment index). Each benchmark reports
// the headline quantities of its table/figure via b.ReportMetric, so
// `go test -bench=. -benchmem` doubles as the reproduction run:
//
//	BenchmarkTable2       — analytical Example 2 (Table 2)
//	BenchmarkFig3         — analytical throughput-vs-F sweep
//	BenchmarkExample1     — gcc:eon starvation at F=0
//	BenchmarkFig5         — detailed gcc:eon time series
//	BenchmarkFig6/7/8     — the full 16-pair × 4-F simulation matrix
//	BenchmarkTimeShare    — §6 time-sharing comparison
//	BenchmarkAblation*    — design-choice ablations (DESIGN.md §5)
//	BenchmarkSimulator    — raw simulator speed
//
// The simulation scale defaults to a fast reduced protocol; set
// SOEMT_BENCH_SCALE=quick or =paper for longer, lower-noise runs
// (paper scale takes tens of minutes).
package soemt_test

import (
	"context"
	"io"
	"math"
	"os"
	"sync"
	"testing"

	"soemt/internal/core"
	"soemt/internal/experiments"
	"soemt/internal/model"
	"soemt/internal/sim"
	"soemt/internal/workload"
)

func benchOptions() experiments.Options {
	opts := experiments.DefaultOptions()
	switch os.Getenv("SOEMT_BENCH_SCALE") {
	case "paper":
		opts = experiments.PaperOptions()
	case "quick":
		// default quick scale
	default:
		opts.Scale = sim.TinyScale()
		opts.SameOffset = 50_000
	}
	return opts
}

// The 16-pair × 4-F matrix is expensive; compute it once and share it
// across the figure benchmarks.
var (
	matrixOnce sync.Once
	matrixRuns []*experiments.PairRun
	matrixErr  error
)

func matrix(b *testing.B) []*experiments.PairRun {
	b.Helper()
	matrixOnce.Do(func() {
		r := experiments.NewRunner(benchOptions())
		matrixRuns, matrixErr = r.RunAllContext(context.Background())
	})
	if matrixErr != nil {
		b.Fatal(matrixErr)
	}
	return matrixRuns
}

func BenchmarkTable2(b *testing.B) {
	var fair0 float64
	for i := 0; i < b.N; i++ {
		rows, err := model.Table2()
		if err != nil {
			b.Fatal(err)
		}
		fair0 = rows[0].Fairness
	}
	b.ReportMetric(fair0, "fairnessF0")                      // paper: 0.11
	b.ReportMetric(mustPredict(b, 1).Slowdown[0], "slow1F1") // paper: 1.59
}

func mustPredict(b *testing.B, f float64) *model.Prediction {
	b.Helper()
	p, err := model.Example2System().Predict(f)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func BenchmarkFig3(b *testing.B) {
	var lo, hi float64
	for i := 0; i < b.N; i++ {
		cases, err := model.Figure3(21)
		if err != nil {
			b.Fatal(err)
		}
		lo, hi = math.Inf(1), math.Inf(-1)
		for _, c := range cases {
			for _, d := range c.DeltaPc {
				lo = math.Min(lo, d)
				hi = math.Max(hi, d)
			}
		}
	}
	b.ReportMetric(lo, "minDeltaPct") // paper: about -15
	b.ReportMetric(hi, "maxDeltaPct") // paper: about +10
}

func BenchmarkExample1(b *testing.B) {
	var fair float64
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchOptions())
		if err := experiments.ExpExample1Context(context.Background(), io.Discard, r); err != nil {
			b.Fatal(err)
		}
		pr, err := r.RunPairContext(context.Background(), experiments.Pair{A: "gcc", B: "eon"})
		if err != nil {
			b.Fatal(err)
		}
		fair = pr.Fairness(0)
	}
	b.ReportMetric(fair, "fairnessF0") // strongly unfair: << 0.5
}

func BenchmarkFig5(b *testing.B) {
	var meanFair float64
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchOptions())
		d, err := experiments.ExpFig5Context(context.Background(), io.Discard, r)
		if err != nil {
			b.Fatal(err)
		}
		var s float64
		for _, v := range d.FairF {
			s += v
		}
		meanFair = s / float64(len(d.FairF))
	}
	b.ReportMetric(meanFair, "meanWindowFairness")
}

func BenchmarkFig6(b *testing.B) {
	runs := matrix(b)
	var sum *experiments.Fig6Summary
	for i := 0; i < b.N; i++ {
		var err error
		sum, err = experiments.ExpFig6(io.Discard, runs)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Paper: 24%, 21%, 19%, 15%.
	b.ReportMetric((sum.AvgSpeedupByF[0]-1)*100, "speedupPctF0")
	b.ReportMetric((sum.AvgSpeedupByF[0.25]-1)*100, "speedupPctF14")
	b.ReportMetric((sum.AvgSpeedupByF[0.5]-1)*100, "speedupPctF12")
	b.ReportMetric((sum.AvgSpeedupByF[1]-1)*100, "speedupPctF1")
}

func BenchmarkFig7(b *testing.B) {
	runs := matrix(b)
	var sum *experiments.Fig7Summary
	for i := 0; i < b.N; i++ {
		var err error
		sum, err = experiments.ExpFig7(io.Discard, runs)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Paper: 2.2%, 3.7%, 7.2%.
	b.ReportMetric(sum.AvgDegradationByF[0.25]*100, "degPctF14")
	b.ReportMetric(sum.AvgDegradationByF[0.5]*100, "degPctF12")
	b.ReportMetric(sum.AvgDegradationByF[1]*100, "degPctF1")
	b.ReportMetric(sum.Correlation, "forcedSwitchCorr") // paper: high
}

func BenchmarkFig8(b *testing.B) {
	runs := matrix(b)
	var sum *experiments.Fig8Summary
	for i := 0; i < b.N; i++ {
		var err error
		sum, err = experiments.ExpFig8(io.Discard, runs)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(sum.AvgTruncatedByF[0.25], "truncFairF14") // ~0.25
	b.ReportMetric(sum.AvgTruncatedByF[0.5], "truncFairF12")  // ~0.5
	b.ReportMetric(sum.AvgTruncatedByF[1], "truncFairF1")     // below 1
	b.ReportMetric(sum.StarvedShareF0*100, "starvedPctF0")    // paper: >33%
}

func BenchmarkTimeShare(b *testing.B) {
	var sum *experiments.TimeShareSummary
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchOptions())
		var err error
		sum, err = experiments.ExpTimeShareContext(context.Background(), io.Discard, r)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(sum.ModelTimeShareFairness, "modelTSFairness") // paper: 0.6
	b.ReportMetric(sum.SimMechanismIPC, "mechanismIPC")
	if len(sum.SimRows) > 0 {
		b.ReportMetric(sum.SimRows[0].IPC, "timeShare400IPC")
	}
}

// --- Ablations (DESIGN.md §5) --------------------------------------------

func ablationRun(b *testing.B, mutate func(*sim.MachineConfig)) (fairness, ipc float64) {
	b.Helper()
	opts := benchOptions()
	m := opts.Machine
	m.Controller.Policy = core.Fairness{F: 1}
	mutate(&m)

	st := make([]float64, 2)
	for i, name := range []string{"gcc", "eon"} {
		res, err := sim.RunSingle(opts.Machine, sim.ThreadSpec{
			Profile: workload.MustByName(name), Slot: i,
		}, opts.Scale)
		if err != nil {
			b.Fatal(err)
		}
		st[i] = res.Threads[0].IPC
	}
	res, err := sim.Run(sim.Spec{
		Machine: m,
		Threads: []sim.ThreadSpec{
			{Profile: workload.MustByName("gcc"), Slot: 0},
			{Profile: workload.MustByName("eon"), Slot: 1},
		},
		Scale: opts.Scale,
	})
	if err != nil {
		b.Fatal(err)
	}
	sp := core.Speedups([]float64{res.Threads[0].IPC, res.Threads[1].IPC}, st)
	return core.FairnessMetric(sp), res.IPCTotal
}

// BenchmarkAblationDeficit compares deficit counting (§3.2) against
// naive quota resetting.
func BenchmarkAblationDeficit(b *testing.B) {
	var fDeficit, fNaive float64
	for i := 0; i < b.N; i++ {
		fDeficit, _ = ablationRun(b, func(m *sim.MachineConfig) {})
		fNaive, _ = ablationRun(b, func(m *sim.MachineConfig) { m.Controller.NaiveDeficit = true })
	}
	b.ReportMetric(fDeficit, "fairnessDeficit")
	b.ReportMetric(fNaive, "fairnessNaive")
}

// BenchmarkAblationDelta sweeps the sampling period Δ: small windows
// are noisy, large ones lag phases (the paper's §3.1 tradeoff).
func BenchmarkAblationDelta(b *testing.B) {
	var f50k, f250k, f1m float64
	for i := 0; i < b.N; i++ {
		f50k, _ = ablationRun(b, func(m *sim.MachineConfig) {
			m.Controller.Delta = 50_000
			m.Controller.MaxCyclesQuota = 10_000
		})
		f250k, _ = ablationRun(b, func(m *sim.MachineConfig) {})
		f1m, _ = ablationRun(b, func(m *sim.MachineConfig) {
			m.Controller.Delta = 1_000_000
		})
	}
	b.ReportMetric(f50k, "fairnessDelta50k")
	b.ReportMetric(f250k, "fairnessDelta250k")
	b.ReportMetric(f1m, "fairnessDelta1M")
}

// BenchmarkAblationMissCount compares the paper's trigger-based miss
// counting against counting every demand miss at execute.
func BenchmarkAblationMissCount(b *testing.B) {
	var fTrigger, fAll float64
	for i := 0; i < b.N; i++ {
		fTrigger, _ = ablationRun(b, func(m *sim.MachineConfig) {})
		fAll, _ = ablationRun(b, func(m *sim.MachineConfig) { m.Controller.CountAllMisses = true })
	}
	b.ReportMetric(fTrigger, "fairnessTriggerCount")
	b.ReportMetric(fAll, "fairnessDemandCount")
}

// BenchmarkAblationMissLat compares the constant Miss_lat against the
// §6 measured-latency extension.
func BenchmarkAblationMissLat(b *testing.B) {
	var fConst, fMeasured float64
	for i := 0; i < b.N; i++ {
		fConst, _ = ablationRun(b, func(m *sim.MachineConfig) {})
		fMeasured, _ = ablationRun(b, func(m *sim.MachineConfig) { m.Controller.MeasureMissLat = true })
	}
	b.ReportMetric(fConst, "fairnessConstLat")
	b.ReportMetric(fMeasured, "fairnessMeasuredLat")
}

// BenchmarkSimulator measures raw simulation speed in simulated
// instructions per wall second.
func BenchmarkSimulator(b *testing.B) {
	opts := benchOptions()
	prof := workload.MustByName("gcc")
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		res, err := sim.RunSingle(opts.Machine, sim.ThreadSpec{Profile: prof, Slot: 0}, opts.Scale)
		if err != nil {
			b.Fatal(err)
		}
		instrs += res.Threads[0].Counters.Instrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkAblationPrefetch measures the interaction of a next-line L2
// prefetcher with SOE: prefetching removes switch triggers from
// strided workloads (the paper's machine has no prefetcher).
func BenchmarkAblationPrefetch(b *testing.B) {
	var offIPC, onIPC, offSw, onSw float64
	run := func(degree int) (float64, float64) {
		opts := benchOptions()
		m := opts.Machine
		m.Memory.PrefetchDegree = degree
		m.Controller.Policy = core.EventOnly{}
		res, err := sim.Run(sim.Spec{
			Machine: m,
			Threads: []sim.ThreadSpec{
				{Profile: workload.MustByName("swim"), Slot: 0},
				{Profile: workload.MustByName("gzip"), Slot: 1},
			},
			Scale: opts.Scale,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res.IPCTotal, float64(res.Switches.Miss) / float64(res.WallCycles) * 1000
	}
	for i := 0; i < b.N; i++ {
		offIPC, offSw = run(0)
		onIPC, onSw = run(4)
	}
	b.ReportMetric(offIPC, "ipcNoPrefetch")
	b.ReportMetric(onIPC, "ipcPrefetch4")
	b.ReportMetric(offSw, "missSw/1kNoPf")
	b.ReportMetric(onSw, "missSw/1kPf4")
}
