// Package model implements the paper's analytical model of SOE
// fairness and throughput (Section 2, Equations 1–10).
//
// A thread is modelled as a sequence of instruction bursts delimited
// by last-level cache misses: IPM instructions and CPM cycles between
// consecutive misses, a fixed Miss_lat stall per miss when running
// alone, and a Switch_lat overhead per thread switch when running
// under SOE. The model predicts per-thread and aggregate IPC with and
// without enforced fairness, and yields the IPSw quotas (Eq. 9) that
// guarantee a target fairness F.
package model

import (
	"fmt"
	"math"

	"soemt/internal/stats"
)

// ThreadParams characterises one thread for the analytical model.
type ThreadParams struct {
	Name      string
	IPCNoMiss float64 // IPC excluding miss stalls (paper's IPC_no_miss)
	IPM       float64 // instructions per last-level cache miss
}

// Validate reports parameter errors. Non-finite values are rejected
// explicitly: NaN compares false against every bound, so without the
// finiteness check a NaN IPM would slip through and poison every
// downstream prediction.
func (t ThreadParams) Validate() error {
	if !finite(t.IPCNoMiss) || t.IPCNoMiss <= 0 {
		return fmt.Errorf("model: %s: IPCNoMiss must be positive and finite, got %v", t.Name, t.IPCNoMiss)
	}
	if !finite(t.IPM) || t.IPM <= 0 {
		return fmt.Errorf("model: %s: IPM must be positive and finite, got %v", t.Name, t.IPM)
	}
	return nil
}

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// CPM returns cycles per miss excluding the miss stall: IPM/IPCNoMiss.
func (t ThreadParams) CPM() float64 { return t.IPM / t.IPCNoMiss }

// IPCST returns the single-thread IPC (Eq. 1):
// IPM / (CPM + Miss_lat).
func (t ThreadParams) IPCST(missLat float64) float64 {
	return t.IPM / (t.CPM() + missLat)
}

// System is a set of threads sharing an SOE processor.
type System struct {
	Threads   []ThreadParams
	MissLat   float64 // average memory access latency (cycles)
	SwitchLat float64 // average switch overhead (cycles)
}

// Validate reports configuration errors.
func (s *System) Validate() error {
	if len(s.Threads) == 0 {
		return fmt.Errorf("model: no threads")
	}
	if !finite(s.MissLat) || !finite(s.SwitchLat) || s.MissLat < 0 || s.SwitchLat < 0 {
		return fmt.Errorf("model: latencies must be finite and non-negative (MissLat=%v SwitchLat=%v)",
			s.MissLat, s.SwitchLat)
	}
	for _, t := range s.Threads {
		if err := t.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// CPMMin returns the minimum CPM across threads.
func (s *System) CPMMin() float64 {
	m := math.Inf(1)
	for _, t := range s.Threads {
		if c := t.CPM(); c < m {
			m = c
		}
	}
	return m
}

// IPSw is Eq. 9, the instructions-per-switch quota that guarantees
// target fairness f for a thread with ipm instructions per miss and
// single-thread IPC ipcST, among n threads whose smallest CPM is
// cpmMin:
//
//	IPSw_j = min(IPM_j, IPC_ST_j/F · ((n-1)·CPM_min + Miss_lat))
//
// The wait term bounds the cycles thread j spends switched out between
// two of its visits: each of its n-1 co-runners executes for at least
// CPM_min cycles before its own miss, and only the last miss's
// resolution (at most Miss_lat) is not overlapped by someone's
// execution. At n = 2 this is the paper's pair formula exactly. With
// f <= 0 or fewer than two threads nothing is enforced and the result
// is IPM: the thread switches on its misses alone. Predict and the
// controller's fairness policies all evaluate Eq. 9 here, so the model
// predicts the mechanism the simulator runs.
func IPSw(ipm, ipcST, f, cpmMin, missLat float64, n int) float64 {
	if f <= 0 || n < 2 {
		return ipm
	}
	return math.Min(ipm, ipcST/f*(float64(n-1)*cpmMin+missLat))
}

// Prediction is the model's output for one fairness setting.
type Prediction struct {
	F        float64   // target fairness used (0 = event-only SOE)
	IPSw     []float64 // per-thread instructions per switch (Eq. 9)
	CPSw     []float64 // per-thread cycles per switch
	IPCSOE   []float64 // per-thread IPC under SOE (Eq. 6)
	IPCST    []float64 // per-thread single-thread IPC (Eq. 1)
	Speedup  []float64 // IPC_SOE_j / IPC_ST_j
	Slowdown []float64 // IPC_ST_j / IPC_SOE_j
	Total    float64   // aggregate throughput IPC_SOE (Eq. 10)
	Fairness float64   // achieved fairness (Eq. 4)
}

// Predict evaluates the model for target fairness f (f = 0 disables
// enforcement: threads switch only on misses, IPSw_j = IPM_j).
func (s *System) Predict(f float64) (*Prediction, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if f < 0 || f > 1 {
		return nil, fmt.Errorf("model: F = %v out of [0, 1]", f)
	}
	n := len(s.Threads)
	p := &Prediction{
		F:        f,
		IPSw:     make([]float64, n),
		CPSw:     make([]float64, n),
		IPCSOE:   make([]float64, n),
		IPCST:    make([]float64, n),
		Speedup:  make([]float64, n),
		Slowdown: make([]float64, n),
	}
	cpmMin := s.CPMMin()
	for i, t := range s.Threads {
		p.IPCST[i] = t.IPCST(s.MissLat)
		p.IPSw[i] = IPSw(t.IPM, p.IPCST[i], f, cpmMin, s.MissLat, n)
		// Between switches the thread runs at IPC_no_miss (miss stalls
		// are hidden by the other threads).
		p.CPSw[i] = p.IPSw[i] / t.IPCNoMiss
	}
	// One SOE round: every thread runs CPSw_k plus a switch overhead
	// (Eq. 6 denominator).
	var round float64
	for i := range s.Threads {
		round += p.CPSw[i] + s.SwitchLat
	}
	for i := range s.Threads {
		p.IPCSOE[i] = p.IPSw[i] / round // Eq. 6
		p.Speedup[i] = p.IPCSOE[i] / p.IPCST[i]
		p.Slowdown[i] = p.IPCST[i] / p.IPCSOE[i]
		p.Total += p.IPCSOE[i] // Eq. 10
	}
	p.Fairness = fairnessOf(p.Speedup) // Eq. 4
	return p, nil
}

// fairnessOf is Eq. 4: the min over all thread pairs of speedup
// ratios, shared with the simulator via stats.MinPairRatio (see its
// doc for the degenerate-input conventions: <2 threads → 1,
// non-positive or non-finite → 0).
func fairnessOf(speedups []float64) float64 {
	return stats.MinPairRatio(speedups)
}

// ThroughputDelta returns the model-predicted relative throughput
// change of enforcing fairness f versus event-only SOE:
// (IPC_SOE(f) - IPC_SOE(0)) / IPC_SOE(0). Negative values are
// degradation. This is the quantity swept in the paper's Figure 3.
func (s *System) ThroughputDelta(f float64) (float64, error) {
	base, err := s.Predict(0)
	if err != nil {
		return 0, err
	}
	enforced, err := s.Predict(f)
	if err != nil {
		return 0, err
	}
	// Validate guarantees positive finite parameters, which makes
	// base.Total positive — but guard the division anyway so a future
	// degenerate path can never emit NaN/Inf from here.
	if !finite(base.Total) || base.Total <= 0 {
		return 0, fmt.Errorf("model: degenerate baseline throughput %v", base.Total)
	}
	return (enforced.Total - base.Total) / base.Total, nil
}

// TimeShareFairness predicts the achieved fairness of simple time
// sharing with equal per-thread cycle quotas (the §6 discussion). The
// baseline keeps the SOE switch-on-event core and merely caps how long
// a thread may stay resident, so a visit ends at whichever comes
// first: the cycle quota, or the thread's next last-level miss. Thread
// j therefore occupies the core for
//
//	visit_j = min(quotaCycles, CPM_j)
//
// cycles per round, retiring visit_j · IPC_no_miss_j instructions, and
// one round is Σ_k (visit_k + Switch_lat).
//
// The previous formulation assumed every thread used its full quota
// (round = n·(quota+Switch_lat)) and credited a missy thread with
// ceil(quota/CPM)·IPM instructions per visit — as if it could cover
// several miss periods inside one residency. A thread that switches on
// its first miss covers exactly one, so for quota > CPM the old bound
// overestimated the missy thread's throughput (by ~ceil(quota/CPM)×)
// and overcharged the clean thread with a round it never waited for.
// TestTimeShareModelTracksEngine in internal/experiments pins the
// corrected formula against the cycle-accurate engine. With
// quota ≤ CPM for all threads both formulations agree, which keeps the
// §6 Example 2 numbers (400-cycle quota) unchanged.
func (s *System) TimeShareFairness(quotaCycles float64) (fairness float64, speedups []float64, err error) {
	if err := s.Validate(); err != nil {
		return 0, nil, err
	}
	if !finite(quotaCycles) || quotaCycles <= 0 {
		return 0, nil, fmt.Errorf("model: quota must be positive")
	}
	n := len(s.Threads)
	visits := make([]float64, n)
	var round float64
	for i, t := range s.Threads {
		visits[i] = math.Min(quotaCycles, t.CPM())
		round += visits[i] + s.SwitchLat
	}
	speedups = make([]float64, n)
	for i, t := range s.Threads {
		ipcSOE := visits[i] * t.IPCNoMiss / round
		speedups[i] = ipcSOE / t.IPCST(s.MissLat)
	}
	return fairnessOf(speedups), speedups, nil
}
