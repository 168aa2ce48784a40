package core

import (
	"math"
	"testing"

	"soemt/internal/model"
	"soemt/internal/stats"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func mkSample(instrs, cycles, misses uint64, missLat float64) ThreadSample {
	w := stats.Counters{Instrs: instrs, Cycles: cycles, Misses: misses}
	return ThreadSample{Window: w, IPM: w.IPM(), CPM: w.CPM(), EstST: w.EstIPCST(missLat)}
}

func TestEventOnlyNoQuotas(t *testing.T) {
	p := EventOnly{}
	qs := p.Quotas([]ThreadSample{mkSample(1000, 400, 1, 300), mkSample(15000, 6000, 1, 300)}, 300)
	for i, q := range qs {
		if q != 0 {
			t.Errorf("thread %d quota = %v, want 0", i, q)
		}
	}
	if p.Name() == "" {
		t.Error("empty policy name")
	}
}

func TestFairnessQuotasMatchExample2(t *testing.T) {
	p := Fairness{F: 1}
	// Thread 1: 15000 instrs per miss over 6000 cycles; thread 2: 1000
	// per miss over 400 cycles. Feed windows with 10 misses each.
	s1 := mkSample(150000, 60000, 10, 300)
	s2 := mkSample(10000, 4000, 10, 300)
	qs := p.Quotas([]ThreadSample{s1, s2}, 300)
	if !almost(qs[0], 1666.7, 1.0) {
		t.Errorf("q1 = %.1f, want 1667", qs[0])
	}
	// Thread 2's Eq. 9 value saturates at its IPM: miss switches alone
	// achieve that average, so no forced switches are scheduled.
	if qs[1] != 0 {
		t.Errorf("q2 = %.1f, want 0 (miss-bound thread needs no quota)", qs[1])
	}
}

func TestFairnessQuotasSingleThread(t *testing.T) {
	p := Fairness{F: 1}
	qs := p.Quotas([]ThreadSample{mkSample(1000, 400, 1, 300)}, 300)
	if qs[0] != 0 {
		t.Error("single-thread runs need no quotas")
	}
}

func TestFairnessQuotasEmptyWindowGuard(t *testing.T) {
	p := Fairness{F: 1}
	s1 := mkSample(150000, 60000, 10, 300)
	s2 := mkSample(0, 0, 0, 300) // starved thread: never ran this window
	qs := p.Quotas([]ThreadSample{s1, s2}, 300)
	if qs[1] != 0 {
		t.Error("empty-window thread must get no quota")
	}
	// cpmMin comes from the live thread itself, so its Eq. 9 value
	// equals its own IPM: miss switching suffices, quota off.
	if qs[0] != 0 {
		t.Errorf("sole live thread quota = %v, want 0 (its own CPM is the minimum)", qs[0])
	}
	// All windows empty -> all zero.
	qs = p.Quotas([]ThreadSample{mkSample(0, 0, 0, 300), mkSample(0, 0, 0, 300)}, 300)
	if qs[0] != 0 || qs[1] != 0 {
		t.Error("all-empty windows must yield no quotas")
	}
}

func TestTimeShareQuotas(t *testing.T) {
	p := TimeShare{QuotaCycles: 400}
	// Thread with window IPC 2.5 gets 1000 instructions per 400 cycles.
	s1 := mkSample(25000, 10000, 10, 300)
	s2 := mkSample(5000, 10000, 10, 300) // IPC 0.5 -> 200
	qs := p.Quotas([]ThreadSample{s1, s2}, 300)
	if !almost(qs[0], 1000, 1e-6) {
		t.Errorf("q1 = %v, want 1000", qs[0])
	}
	if !almost(qs[1], 200, 1e-6) {
		t.Errorf("q2 = %v, want 200", qs[1])
	}
	if p.Name() == "" {
		t.Error("empty name")
	}
	// Zero quota disables.
	qs = TimeShare{}.Quotas([]ThreadSample{s1, s2}, 300)
	if qs[0] != 0 {
		t.Error("zero QuotaCycles must disable")
	}
}

func TestFairnessMetric(t *testing.T) {
	if FairnessMetric([]float64{0.63, 0.63}) != 1 {
		t.Error("equal speedups must be perfectly fair")
	}
	got := FairnessMetric([]float64{0.98, 0.109})
	if !almost(got, 0.109/0.98, 1e-9) {
		t.Errorf("fairness = %v", got)
	}
	if FairnessMetric([]float64{1.0}) != 1 {
		t.Error("single thread is trivially fair")
	}
	if FairnessMetric([]float64{0.5, 0}) != 0 {
		t.Error("starved thread must give fairness 0")
	}
	// Symmetric in order.
	if FairnessMetric([]float64{0.2, 0.8}) != FairnessMetric([]float64{0.8, 0.2}) {
		t.Error("metric must not depend on thread order")
	}
}

func TestFairnessMetricRange(t *testing.T) {
	cases := [][]float64{{0.1, 0.9}, {1, 1}, {2, 0.5, 1}, {0.3, 0.3, 0.3}}
	for _, c := range cases {
		f := FairnessMetric(c)
		if f < 0 || f > 1 {
			t.Errorf("fairness(%v) = %v out of [0,1]", c, f)
		}
	}
}

func TestWeightedSpeedupAndHarmonic(t *testing.T) {
	sp := []float64{0.5, 0.8}
	if !almost(WeightedSpeedup(sp), 1.3, 1e-9) {
		t.Error("weighted speedup wrong")
	}
	// Harmonic mean of {0.5, 0.8} = 2/(2+1.25) = 0.6154.
	if !almost(HarmonicFairness(sp), 2/(1/0.5+1/0.8), 1e-9) {
		t.Error("harmonic fairness wrong")
	}
}

func TestSpeedups(t *testing.T) {
	got := Speedups([]float64{2.326, 0.155}, []float64{2.381, 1.429})
	if !almost(got[0], 0.977, 0.001) || !almost(got[1], 0.108, 0.001) {
		t.Errorf("speedups = %v", got)
	}
	// Zero ST IPC yields zero speedup, not a division crash.
	got = Speedups([]float64{1}, []float64{0})
	if got[0] != 0 {
		t.Error("zero IPC_ST must give speedup 0")
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch must panic")
		}
	}()
	Speedups([]float64{1}, []float64{1, 2})
}

func TestTruncatedFairness(t *testing.T) {
	if TruncatedFairness(0.5, 0.9) != 0.5 {
		t.Error("achieved above target must truncate to target")
	}
	if TruncatedFairness(0.5, 0.3) != 0.3 {
		t.Error("achieved below target must pass through")
	}
	if TruncatedFairness(0, 0.9) != 0.9 {
		t.Error("F=0 must not truncate")
	}
}

// TestPredictIPSwMatchesControllerQuota: for three threads the model
// must budget each thread as the controller does. Threads (IPC_no_miss,
// IPM) = (2.5, 15000), (2.5, 1000), (2.0, 5000) at F = 1 and
// Miss_lat 300: the controller budgets thread 1 at
// 15000/6300 · (2·400 + 300) = 2619 instructions per switch; the pair
// wait term would give 1667.
func TestPredictIPSwMatchesControllerQuota(t *testing.T) {
	const missLat = 300
	sys := &model.System{MissLat: missLat, SwitchLat: 25, Threads: []model.ThreadParams{
		{Name: "a", IPCNoMiss: 2.5, IPM: 15000},
		{Name: "b", IPCNoMiss: 2.5, IPM: 1000},
		{Name: "c", IPCNoMiss: 2.0, IPM: 5000},
	}}
	pred, err := sys.Predict(1)
	if err != nil {
		t.Fatal(err)
	}
	samples := make([]ThreadSample, len(sys.Threads))
	for i, th := range sys.Threads {
		samples[i] = ThreadSample{
			Window: stats.Counters{Cycles: 1},
			IPM:    th.IPM,
			CPM:    th.CPM(),
			EstST:  th.IPCST(missLat),
		}
	}
	quotas := Fairness{F: 1}.Quotas(samples, missLat)
	for i, q := range quotas {
		// A zero quota means the thread switches on its misses alone,
		// which the model writes as IPSw = IPM.
		want := q
		if q == 0 {
			want = sys.Threads[i].IPM
		}
		if pred.IPSw[i] != want {
			t.Errorf("thread %d: model IPSw %.1f, controller budgets %.1f", i, pred.IPSw[i], want)
		}
	}
	if !almost(quotas[0], 2619, 1) {
		t.Errorf("thread 0 quota %.1f, want 2619 ((N-1)·CPM_min wait term)", quotas[0])
	}
}
