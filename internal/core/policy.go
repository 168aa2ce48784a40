// Package core implements the paper's primary contribution: the
// Switch-on-Event multithreading controller with runtime fairness
// enforcement.
//
// The controller owns the pipeline and N thread contexts. It switches
// the active thread on last-level-cache miss events (the ROB-head
// trigger from §4.1) and, when a fairness policy is active, on forced
// switch points maintained by per-thread deficit counters (§3.2). A
// sampling loop reads the per-thread hardware counters every Δ cycles,
// estimates each thread's single-thread IPC (Eqs. 11–13), and
// recomputes the per-thread instructions-per-switch quota IPSw from
// Eq. 9.
package core

import (
	"math"

	"soemt/internal/model"
	"soemt/internal/stats"
)

// ThreadSample is the per-thread view a Policy receives each sampling
// period: the windowed hardware counters plus derived rates.
type ThreadSample struct {
	Window stats.Counters // Δ-window deltas of Instrs/Cycles/Misses
	IPM    float64        // Eq. 11
	CPM    float64        // Eq. 12
	EstST  float64        // Eq. 13: estimated single-thread IPC
}

// Policy computes per-thread instruction quotas (IPSw) from sampled
// counters. A quota q[i] <= 0 disables forced switches for thread i.
//
// Quotas must be a pure function of its arguments: the same samples
// and missLat always yield the same quotas, and the call changes no
// state. Whole-run reuse between sibling runs depends on it
// (sim.Siblings replays a policy over another run's recorded samples
// to prove the two runs identical).
type Policy interface {
	Name() string
	Quotas(samples []ThreadSample, missLat float64) []float64
}

// EventOnly is the baseline SOE policy (F = 0): threads switch only on
// last-level cache misses; no fairness enforcement.
type EventOnly struct{}

// Name implements Policy.
func (EventOnly) Name() string { return "event-only" }

// Quotas implements Policy: no forced switches.
func (EventOnly) Quotas(samples []ThreadSample, missLat float64) []float64 {
	return make([]float64, len(samples))
}

// Fairness enforces the paper's mechanism with target fairness F
// (0 < F <= 1). Every sampling period it recomputes IPSw_j per Eq. 9
// from the counter-estimated IPM, CPM and IPC_ST. The quota math is
// N-thread aware: the Eq. 9 wait term scales with the number of
// co-runners (see Quotas).
type Fairness struct {
	F float64
}

// Name implements Policy.
func (p Fairness) Name() string { return "fairness" }

// Quotas implements Policy: Eq. 9 (model.IPSw) for every thread that
// ran this window, with the N-thread wait term (N-1)·CPM_min +
// Miss_lat. For N = 2 it is the paper's pair formula exactly — the
// N = 2 differential suite in internal/sim pins this bit-identically
// against the seed pair engine; TestFairnessQuotasThreeSampleNAware
// pins the N = 3 budget.
func (p Fairness) Quotas(samples []ThreadSample, missLat float64) []float64 {
	q := make([]float64, len(samples))
	if len(samples) < 2 || p.F <= 0 {
		return q
	}
	// Threads with an empty window (never ran this Δ — prevented by
	// the max-cycles quota, but guarded anyway) contribute no CPM and
	// receive no quota.
	cpmMin := math.Inf(1)
	for _, s := range samples {
		if s.Window.Cycles > 0 && s.CPM < cpmMin {
			cpmMin = s.CPM
		}
	}
	if math.IsInf(cpmMin, 1) {
		return q
	}
	for i, s := range samples {
		if s.Window.Cycles == 0 {
			continue
		}
		// When Eq. 9 reaches IPM_j, miss-induced switches alone
		// already produce that average ("there is no way to increase
		// IPSw_j to a value greater than IPM_j"), so no forced switch
		// points are needed — enforcing IPM_j with a deficit counter
		// would instead fire in every shorter-than-average miss gap
		// and penalize naturally fair pairs.
		if ipsw := model.IPSw(s.IPM, s.EstST, p.F, cpmMin, missLat, len(samples)); ipsw < s.IPM {
			q[i] = ipsw
		}
	}
	return q
}

// TimeShare is the §6 baseline: OS-style time sharing that aims for a
// fixed number of cycles between switches, regardless of thread
// characteristics. The cycle quota is converted to an instruction
// quota using each thread's observed multithreaded IPC over the
// sampling window.
type TimeShare struct {
	QuotaCycles float64
}

// Name implements Policy.
func (p TimeShare) Name() string { return "time-share" }

// Quotas implements Policy. QuotaCycles is a per-visit residency
// target, so it is deliberately independent of the thread count: with
// N threads each visit is still capped at QuotaCycles, and a thread
// simply waits through N-1 such visits per round. The conversion to an
// instruction quota is per-thread (each thread's own windowed IPC), so
// the policy is N-aware without any pair-specific term.
func (p TimeShare) Quotas(samples []ThreadSample, missLat float64) []float64 {
	q := make([]float64, len(samples))
	if len(samples) < 2 || p.QuotaCycles <= 0 {
		return q
	}
	for i, s := range samples {
		ipc := s.Window.IPC()
		if ipc <= 0 {
			ipc = 1
		}
		q[i] = p.QuotaCycles * ipc
	}
	return q
}
