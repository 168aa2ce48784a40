package model

import (
	"math"
	"testing"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// The paper's Example 2 numbers, quoted in §2.4 and Table 2 and the
// abstract: at F=0 slowdowns are 1.02 and 9.2, fairness 0.11; at F=1
// thread 1 switches every ~1667 instructions and both slowdowns are
// ~1.59 (speedups 0.63), fairness 1.0.
func TestExample2MatchesPaperF0(t *testing.T) {
	sys := Example2System()
	p, err := sys.Predict(0)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(p.IPCST[0], 15000.0/6300, 1e-9) {
		t.Errorf("IPC_ST1 = %v", p.IPCST[0])
	}
	if !almost(p.IPCST[1], 1000.0/700, 1e-9) {
		t.Errorf("IPC_ST2 = %v", p.IPCST[1])
	}
	if !almost(p.Slowdown[0], 1.02, 0.01) {
		t.Errorf("slowdown1 = %.3f, paper says 1.02", p.Slowdown[0])
	}
	if !almost(p.Slowdown[1], 9.2, 0.1) {
		t.Errorf("slowdown2 = %.3f, paper says 9.2", p.Slowdown[1])
	}
	if !almost(p.Fairness, 0.11, 0.005) {
		t.Errorf("fairness = %.3f, paper says 0.11", p.Fairness)
	}
}

func TestExample2MatchesPaperF1(t *testing.T) {
	sys := Example2System()
	p, err := sys.Predict(1)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(p.IPSw[0], 1667, 1) {
		t.Errorf("IPSw1 = %.1f, paper says 1667", p.IPSw[0])
	}
	if !almost(p.IPSw[1], 1000, 1e-6) {
		t.Errorf("IPSw2 = %.1f, want 1000 (IPM-bound)", p.IPSw[1])
	}
	if !almost(p.Slowdown[0], 1.59, 0.01) || !almost(p.Slowdown[1], 1.59, 0.01) {
		t.Errorf("slowdowns = %.3f, %.3f; paper says 1.59 both", p.Slowdown[0], p.Slowdown[1])
	}
	if !almost(p.Speedup[0], 0.63, 0.01) {
		t.Errorf("speedup = %.3f, paper says 0.63", p.Speedup[0])
	}
	if !almost(p.Fairness, 1.0, 1e-6) {
		t.Errorf("fairness = %.4f, want 1.0", p.Fairness)
	}
}

func TestExample2F05AllowsFactor2(t *testing.T) {
	sys := Example2System()
	p, err := sys.Predict(0.5)
	if err != nil {
		t.Fatal(err)
	}
	ratio := p.Slowdown[1] / p.Slowdown[0]
	if !almost(ratio, 2.0, 0.01) {
		t.Errorf("slowdown ratio = %.3f, want 2 at F=1/2", ratio)
	}
	if !almost(p.Fairness, 0.5, 0.005) {
		t.Errorf("fairness = %.3f, want 0.5", p.Fairness)
	}
}

// §6: time sharing at 400-cycle quotas on Example 2 gives speedups
// ~[0.5, 0.8] and fairness ~0.6, worse than the mechanism's 1.0.
func TestTimeShareSection6(t *testing.T) {
	sys := Example2System()
	fair, speedups, err := sys.TimeShareFairness(400)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(speedups[0], 0.5, 0.05) {
		t.Errorf("speedup1 = %.3f, paper says ~0.5", speedups[0])
	}
	if !almost(speedups[1], 0.8, 0.08) {
		t.Errorf("speedup2 = %.3f, paper says ~0.8", speedups[1])
	}
	if !almost(fair, 0.6, 0.06) {
		t.Errorf("time-share fairness = %.3f, paper says ~0.6", fair)
	}
	// The mechanism achieves strictly better fairness.
	p, _ := sys.Predict(1)
	if p.Fairness <= fair {
		t.Errorf("mechanism fairness %.3f not better than time share %.3f", p.Fairness, fair)
	}
}

func TestFairnessMonotoneInF(t *testing.T) {
	sys := Example2System()
	prev := -1.0
	for _, f := range []float64{0, 0.1, 0.25, 0.5, 0.75, 1} {
		p, err := sys.Predict(f)
		if err != nil {
			t.Fatal(err)
		}
		if p.Fairness < prev-1e-9 {
			t.Errorf("fairness not monotone at F=%.2f: %.4f < %.4f", f, p.Fairness, prev)
		}
		prev = p.Fairness
		if f > 0 && p.Fairness < f-1e-9 {
			t.Errorf("achieved model fairness %.4f below target %.2f", p.Fairness, f)
		}
	}
}

func TestPredictTotalIsSumOfThreads(t *testing.T) {
	sys := Example2System()
	for _, f := range []float64{0, 0.3, 1} {
		p, err := sys.Predict(f)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, v := range p.IPCSOE {
			sum += v
		}
		if !almost(sum, p.Total, 1e-12) {
			t.Errorf("Eq. 10 violated at F=%v", f)
		}
	}
}

func TestThroughputDeltaSigns(t *testing.T) {
	// Equal IPC_no_miss: enforcement costs throughput (more switches).
	equal := Example2System()
	d, err := equal.ThroughputDelta(1)
	if err != nil {
		t.Fatal(err)
	}
	if d >= 0 {
		t.Errorf("equal-IPC pair should lose throughput, delta = %.3f", d)
	}
	// Unequal IPC_no_miss with the fast thread missing often: biasing
	// execution toward the high-IPC thread can improve throughput
	// (paper: up to +10%).
	uneven := &System{
		Threads: []ThreadParams{
			{Name: "slow-clean", IPCNoMiss: 2, IPM: 15000},
			{Name: "fast-missy", IPCNoMiss: 3, IPM: 1000},
		},
		MissLat: 300, SwitchLat: 25,
	}
	d2, err := uneven.ThroughputDelta(1)
	if err != nil {
		t.Fatal(err)
	}
	if d2 <= 0 {
		t.Errorf("uneven pair should gain throughput, delta = %.3f", d2)
	}
}

func TestFigure3CurvesWithinPaperBand(t *testing.T) {
	cases, err := Figure3(21)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) < 4 {
		t.Fatalf("only %d curves", len(cases))
	}
	sawGain, sawLoss := false, false
	for _, c := range cases {
		if len(c.F) != 21 || len(c.DeltaPc) != 21 {
			t.Fatalf("curve %s wrong length", c.Label)
		}
		if c.DeltaPc[0] != 0 {
			t.Errorf("%s: delta at F=0 must be 0, got %.3f", c.Label, c.DeltaPc[0])
		}
		for _, d := range c.DeltaPc {
			// Paper's band: degradation up to ~15%, improvement up to ~10%.
			if d < -25 || d > 20 {
				t.Errorf("%s: delta %.1f%% far outside the paper's band", c.Label, d)
			}
			if d > 0.5 {
				sawGain = true
			}
			if d < -0.5 {
				sawLoss = true
			}
		}
	}
	if !sawGain || !sawLoss {
		t.Errorf("Figure 3 must show both gains and losses (gain=%v loss=%v)", sawGain, sawLoss)
	}
}

func TestTable2Shape(t *testing.T) {
	rows, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("table 2 rows = %d", len(rows))
	}
	if rows[0].F != 0 || rows[1].F != 0.5 || rows[2].F != 1 {
		t.Fatal("table 2 F levels wrong")
	}
	// Throughput decreases as enforcement tightens for this pair.
	if !(rows[0].Total > rows[1].Total && rows[1].Total > rows[2].Total) {
		t.Errorf("throughput not decreasing: %v %v %v",
			rows[0].Total, rows[1].Total, rows[2].Total)
	}
}

func TestValidation(t *testing.T) {
	bad := &System{Threads: []ThreadParams{{Name: "x", IPCNoMiss: 0, IPM: 100}}, MissLat: 300}
	if _, err := bad.Predict(0); err == nil {
		t.Error("zero IPC must be rejected")
	}
	bad2 := &System{}
	if _, err := bad2.Predict(0); err == nil {
		t.Error("empty system must be rejected")
	}
	sys := Example2System()
	if _, err := sys.Predict(1.5); err == nil {
		t.Error("F > 1 must be rejected")
	}
	if _, err := sys.Predict(-0.1); err == nil {
		t.Error("F < 0 must be rejected")
	}
	if _, _, err := sys.TimeShareFairness(0); err == nil {
		t.Error("zero quota must be rejected")
	}
	neg := Example2System()
	neg.MissLat = -1
	if _, err := neg.Predict(0); err == nil {
		t.Error("negative latency must be rejected")
	}
}

func TestCPMMin(t *testing.T) {
	sys := Example2System()
	if !almost(sys.CPMMin(), 400, 1e-9) {
		t.Errorf("CPMMin = %v", sys.CPMMin())
	}
}

func TestFairnessOfEdgeCases(t *testing.T) {
	if fairnessOf([]float64{1}) != 1 {
		t.Error("single-thread fairness must be 1")
	}
	if fairnessOf([]float64{0, 1}) != 0 {
		t.Error("zero speedup must give 0")
	}
}

// Property: for any valid 2-thread system, predicted fairness at F=1
// equals 1 (Eq. 9 guarantees it by construction).
func TestEnforcedPerfectFairnessProperty(t *testing.T) {
	params := []struct{ ipc1, ipc2, ipm1, ipm2 float64 }{
		{2.5, 2.5, 15000, 1000},
		{1.0, 3.0, 500, 40000},
		{2.0, 2.0, 100, 100},
		{3.5, 0.7, 80000, 200},
	}
	for _, pr := range params {
		sys := &System{
			Threads: []ThreadParams{
				{Name: "a", IPCNoMiss: pr.ipc1, IPM: pr.ipm1},
				{Name: "b", IPCNoMiss: pr.ipc2, IPM: pr.ipm2},
			},
			MissLat: 300, SwitchLat: 25,
		}
		p, err := sys.Predict(1)
		if err != nil {
			t.Fatal(err)
		}
		if !almost(p.Fairness, 1, 1e-9) {
			t.Errorf("%+v: fairness at F=1 = %v", pr, p.Fairness)
		}
	}
}

// Example 2 of the paper: IPC_no_miss = 2.5 on both threads,
// Miss_lat = 300, Switch_lat = 25, IPM = [15000, 1000],
// CPM = [6000, 400]. With F = 1 the first thread must be forced to
// switch every ~1667 instructions (Table 2).
func TestIPSwPaperExample2(t *testing.T) {
	ipcST1 := 15000.0 / (6000 + 300) // 2.381
	cpmMin := 400.0
	q := IPSw(15000, ipcST1, 1.0, cpmMin, 300, 2)
	if !almost(q, 1666.7, 1.0) {
		t.Errorf("IPSw_1 at F=1 = %.1f, paper says 1667", q)
	}
	// Thread 2's quota saturates at its IPM: it misses at least as
	// often as any quota would force.
	ipcST2 := 1000.0 / (400 + 300) // 1.429
	q2 := IPSw(1000, ipcST2, 1.0, cpmMin, 300, 2)
	if !almost(q2, 1000, 1e-9) {
		t.Errorf("IPSw_2 at F=1 = %.1f, want 1000 (= IPM)", q2)
	}
	// F = 1/2 doubles the allowed quota for thread 1.
	qh := IPSw(15000, ipcST1, 0.5, cpmMin, 300, 2)
	if !almost(qh, 2*q, 1.0) {
		t.Errorf("IPSw_1 at F=1/2 = %.1f, want %.1f", qh, 2*q)
	}
	// F = 0 enforces nothing: the thread switches on its misses alone.
	if q := IPSw(15000, ipcST1, 0, cpmMin, 300, 2); q != 15000 {
		t.Errorf("IPSw at F=0 = %v, want IPM", q)
	}
	// A tiny F drives the raw Eq. 9 value past IPM: saturated, never
	// Inf or NaN.
	if q := IPSw(15000, ipcST1, 1e-300, cpmMin, 300, 2); q != 15000 {
		t.Errorf("IPSw at tiny F = %v, want saturated at IPM", q)
	}
}

// Eq. 5 consistency: with no enforcement, the fairness the model
// predicts is the CPM ratio; IPSw reproduces Eq. 9's saturation
// boundary where IPM_j == quota.
func TestIPSwSaturationBoundary(t *testing.T) {
	// If IPC_ST_j/F*(CPMmin+missLat) == IPM_j exactly, both branches
	// agree.
	ipm := 1000.0
	ipcST := ipm / (400 + 300)
	f := ipcST * (400 + 300) / ipm // == 1
	q := IPSw(ipm, ipcST, f, 400, 300, 2)
	if !almost(q, ipm, 1e-9) {
		t.Errorf("boundary quota = %v, want %v", q, ipm)
	}
}

// At two threads the N-thread wait term is the paper's pair formula
// bit for bit; with one thread nothing is enforced.
func TestIPSwPairFormulaAtTwoThreads(t *testing.T) {
	for _, c := range []struct{ ipm, ipcST, f, cpmMin, missLat float64 }{
		{15000, 15000.0 / 6300, 1, 400, 300},
		{15000, 15000.0 / 6300, 0.25, 400, 300},
		{5000, 0.7, 0.5, 1234.5, 287},
		{1e6, 1.9, 1.0 / 3, 17, 90},
	} {
		pair := math.Min(c.ipm, c.ipcST/c.f*(c.cpmMin+c.missLat))
		if got := IPSw(c.ipm, c.ipcST, c.f, c.cpmMin, c.missLat, 2); got != pair {
			t.Errorf("IPSw%+v at N=2 = %v, pair formula %v", c, got, pair)
		}
		if got := IPSw(c.ipm, c.ipcST, c.f, c.cpmMin, c.missLat, 1); got != c.ipm {
			t.Errorf("IPSw%+v at N=1 = %v, want IPM", c, got)
		}
	}
}
