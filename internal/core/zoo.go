package core

import (
	"fmt"
	"math"
	"sort"

	"soemt/internal/model"
)

// This file is the policy zoo beyond the paper (ROADMAP item 3 /
// DESIGN.md §15). The paper's controller fixes two mechanism choices:
// the next thread is always the round-robin successor, and every
// thread stays dispatch-eligible forever. The zoo policies relax
// exactly those two choices through optional interfaces:
//
//   - Granter: the policy chooses the next thread by weighted fair
//     queueing over switch grants (WFQGrant, GroupedFairness);
//   - Culler: the policy may demote threads to a passive cold set and
//     periodically probe them back (Malthusian).
//
// A policy that implements neither runs on the exact seed code path —
// the N = 2 differential suite in internal/sim pins EventOnly,
// Fairness and TimeShare bit-identically against the pre-zoo engine.

// Granter is an optional Policy extension: a policy that orders switch
// grants by weighted fair queueing instead of round-robin rotation.
// The controller keeps a per-thread virtual-time credit; a completed
// visit of thread i charges credit_i += visit_cycles / weight_i, and
// every switch dispatches the eligible thread with the least credit
// (ties broken by lowest index, so grant order is deterministic).
//
// GrantWeights returns per-thread weights for the coming Δ window,
// recomputed at every sample from the window counters. Non-positive,
// non-finite or missing weights default to 1; before the first sample
// every weight is 1.
type Granter interface {
	GrantWeights(samples []ThreadSample) []float64
}

// CullState is the view a Culler receives at every Δ sample.
type CullState struct {
	// Samples are the window's per-thread counter estimates, indexed
	// like the controller's thread slice.
	Samples []ThreadSample
	// Active is the dispatch-eligibility mask, mutated in place. The
	// controller re-activates the running thread if a cull empties the
	// mask, so at least one thread always remains dispatchable.
	Active []bool
	// Window is the 1-based Δ-sample ordinal since machine start.
	Window int
	// AggIPC is this window's aggregate IPC (all threads' retired
	// instructions over the window's wall cycles).
	AggIPC float64
	// PeakIPC is the best AggIPC observed so far.
	PeakIPC float64
}

// Culler is an optional Policy extension: a policy that demotes
// threads to a passive cold set when multithreading itself is
// destroying throughput (Malthusian Locks' culling insight applied to
// SOE thread contexts). Demoted threads receive no switch grants until
// reactivated; their architectural state is untouched.
type Culler interface {
	Cull(st *CullState)
}

// GroupedFairness is the LFOC-style policy: threads are classified by
// their windowed CPM into a cache-friendly and a "missy" group, Eq. 9
// quotas are computed with each group's own CPM floor, and switch
// grants are weighted fair-queued across the groups.
//
// Rationale: plain Fairness ties every thread's Eq. 9 wait term to the
// global CPM minimum — the missiest thread's miss distance — which
// makes the cache-friendly hogs' forced-switch quotas maximally tight.
// Grouping relaxes the friendly group's budget to its own (larger) CPM
// floor, removing forced switches, and compensates for the looser
// quota pressure by weighting switch grants toward the missy group —
// whose short pre-miss visits the WFQ credit already favors. The
// hypothesis experiment for this policy quantifies the trade: fewer
// forced switches and at-least-held fairness versus plain Fairness at
// the same F.
type GroupedFairness struct {
	// F is the target fairness in (0, 1], as in Fairness.
	F float64
	// CPMSplit is the cycles-per-miss boundary: threads with window
	// CPM < CPMSplit are missy (a short miss distance means frequent
	// misses), the rest cache-friendly. A non-positive split uses the
	// midpoint of the window's observed CPM range (threads then
	// regroup adaptively as phases change).
	CPMSplit float64
	// MissyWeight and FriendlyWeight are the WFQ grant weights applied
	// to the members of each group (non-positive values default to 1).
	MissyWeight, FriendlyWeight float64
	// Invert deliberately mis-groups every thread at lookup time: a
	// cache-friendly thread is budgeted and grant-weighted as if it
	// were missy (inheriting the missy group's large CPM floor, which
	// saturates Eq. 9 and disables its forced switches) and vice versa.
	// It exists as the golden suite's negative control — a mis-grouped
	// policy must fail the 4-thread starvation invariant — and is never
	// useful outside tests.
	Invert bool
}

// Name implements Policy.
func (p GroupedFairness) Name() string { return "grouped-fairness" }

// classify returns the missy mask for samples (true = missy). Threads
// with empty windows are left in the friendly group; they contribute
// no CPM evidence either way.
func (p GroupedFairness) classify(samples []ThreadSample) []bool {
	split := p.CPMSplit
	if split <= 0 || math.IsNaN(split) {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, s := range samples {
			if s.Window.Cycles == 0 || !finiteNonNeg(s.CPM) {
				continue
			}
			lo = math.Min(lo, s.CPM)
			hi = math.Max(hi, s.CPM)
		}
		if math.IsInf(lo, 1) {
			return make([]bool, len(samples))
		}
		split = (lo + hi) / 2
	}
	missy := make([]bool, len(samples))
	for i, s := range samples {
		missy[i] = s.Window.Cycles > 0 && s.CPM < split
	}
	return missy
}

// Quotas implements Policy: Eq. 9 with the wait term built from the
// thread's own group's CPM floor (the co-runner count stays global —
// a thread waits for every other thread's visit regardless of group).
func (p GroupedFairness) Quotas(samples []ThreadSample, missLat float64) []float64 {
	q := make([]float64, len(samples))
	if len(samples) < 2 || p.F <= 0 {
		return q
	}
	missy := p.classify(samples)
	cpmMin := [2]float64{math.Inf(1), math.Inf(1)} // [friendly, missy]
	for i, s := range samples {
		g := groupIdx(missy[i])
		if s.Window.Cycles > 0 && finiteNonNeg(s.CPM) && s.CPM < cpmMin[g] {
			cpmMin[g] = s.CPM
		}
	}
	for i, s := range samples {
		if s.Window.Cycles == 0 {
			continue
		}
		// Invert (the negative control) swaps the floor lookup, not the
		// group contents: each thread is budgeted with the OTHER
		// group's CPM floor.
		floor := cpmMin[groupIdx(missy[i] != p.Invert)]
		if math.IsInf(floor, 1) {
			continue
		}
		if ipsw := model.IPSw(s.IPM, s.EstST, p.F, floor, missLat, len(samples)); finiteNonNeg(ipsw) && ipsw < s.IPM {
			q[i] = ipsw
		}
	}
	return q
}

// GrantWeights implements Granter: group-level weights, so grant
// bandwidth is split across the groups in MissyWeight:FriendlyWeight
// proportion independently of how many threads each group holds.
func (p GroupedFairness) GrantWeights(samples []ThreadSample) []float64 {
	missy := p.classify(samples)
	w := make([]float64, len(samples))
	mw, fw := p.MissyWeight, p.FriendlyWeight
	if !finitePos(mw) {
		mw = 1
	}
	if !finitePos(fw) {
		fw = 1
	}
	for i := range w {
		if missy[i] != p.Invert {
			w[i] = mw
		} else {
			w[i] = fw
		}
	}
	return w
}

func groupIdx(missy bool) int {
	if missy {
		return 1
	}
	return 0
}

// WFQGrant is the NoC-style weighted-fair-queueing policy: switch
// grants (not cycle quotas) are scheduled by per-thread deficit
// credits, so over time each thread's share of core residency
// converges to its weight share even when miss behaviour is wildly
// asymmetric. Switches themselves remain event-driven (miss and
// max-cycles); the policy issues no Eq. 9 forced-switch quotas.
type WFQGrant struct {
	// Weights[i] is thread i's grant weight. Missing or non-positive
	// entries default to 1; an empty slice is plain fair queueing.
	Weights []float64
}

// Name implements Policy.
func (p WFQGrant) Name() string { return "wfq" }

// Quotas implements Policy: no forced switch points.
func (p WFQGrant) Quotas(samples []ThreadSample, missLat float64) []float64 {
	return make([]float64, len(samples))
}

// GrantWeights implements Granter.
func (p WFQGrant) GrantWeights(samples []ThreadSample) []float64 {
	w := make([]float64, len(samples))
	for i := range w {
		if i < len(p.Weights) && finitePos(p.Weights[i]) {
			w[i] = p.Weights[i]
		} else {
			w[i] = 1
		}
	}
	return w
}

// Malthusian demotes the worst-throughput thread to a passive cold set
// whenever the aggregate window IPC collapses below a fraction of the
// best aggregate seen, and periodically reactivates the cold set to
// probe whether conditions changed (Malthusian Locks: culling excess
// threads under scalability collapse beats fair sharing of a thrashing
// resource — here the shared cache hierarchy, not a lock).
type Malthusian struct {
	// MinAggFrac in (0, 1]: a window whose aggregate IPC falls below
	// MinAggFrac × peak demotes one thread. Non-positive defaults to
	// 0.9.
	MinAggFrac float64
	// ProbeEvery reactivates every demoted thread on each
	// ProbeEvery-th Δ window for one probe window. Non-positive
	// defaults to 8.
	ProbeEvery int
}

// Name implements Policy.
func (p Malthusian) Name() string { return "malthusian" }

// Quotas implements Policy: no forced switch points — culling, not
// quota enforcement, is the mechanism.
func (p Malthusian) Quotas(samples []ThreadSample, missLat float64) []float64 {
	return make([]float64, len(samples))
}

// Cull implements Culler.
func (p Malthusian) Cull(st *CullState) {
	probeEvery := p.ProbeEvery
	if probeEvery <= 0 {
		probeEvery = 8
	}
	if st.Window%probeEvery == 0 {
		// Reactivation probe: run everyone for one window and let the
		// next windows re-demote if the collapse persists.
		for i := range st.Active {
			st.Active[i] = true
		}
		return
	}
	frac := p.MinAggFrac
	if !finitePos(frac) {
		frac = 0.9
	}
	if st.AggIPC >= frac*st.PeakIPC {
		return
	}
	// Demote the active thread with the least window progress; ties go
	// to the highest index (the "excess" thread joined last).
	nActive, worst := 0, -1
	for i, on := range st.Active {
		if !on {
			continue
		}
		nActive++
		if worst < 0 || st.Samples[i].Window.Instrs <= st.Samples[worst].Window.Instrs {
			worst = i
		}
	}
	if nActive > 1 && worst >= 0 {
		st.Active[worst] = false
	}
}

func finiteNonNeg(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0) && x >= 0
}

func finitePos(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0) && x > 0
}

// PolicyParams carries the CLI-surfaced knobs consumed by
// PolicyByName; zero values select each policy's documented default.
type PolicyParams struct {
	F           float64   // fairness target (fairness, grouped-fairness)
	QuotaCycles float64   // time-share per-visit cycle quota
	Weights     []float64 // wfq per-thread weights
	CPMSplit    float64   // grouped-fairness classification boundary
	MissyWeight float64   // grouped-fairness missy-group grant weight
	FriendWt    float64   // grouped-fairness friendly-group grant weight
	MinAggFrac  float64   // malthusian collapse threshold
	ProbeEvery  int       // malthusian reactivation period (Δ windows)
}

// PolicyNames lists every policy PolicyByName accepts, sorted.
func PolicyNames() []string {
	names := []string{
		EventOnly{}.Name(),
		Fairness{}.Name(),
		TimeShare{}.Name(),
		GroupedFairness{}.Name(),
		WFQGrant{}.Name(),
		Malthusian{}.Name(),
	}
	sort.Strings(names)
	return names
}

// PolicyByName constructs a zoo policy from its CLI name. Defaults:
// fairness and grouped-fairness fall back to F = 1/2, time-share to a
// 50,000-cycle quota.
func PolicyByName(name string, p PolicyParams) (Policy, error) {
	switch name {
	case "", "event-only":
		return EventOnly{}, nil
	case "fairness":
		if p.F <= 0 {
			p.F = 0.5
		}
		return Fairness{F: p.F}, nil
	case "time-share":
		if p.QuotaCycles <= 0 {
			p.QuotaCycles = 50_000
		}
		return TimeShare{QuotaCycles: p.QuotaCycles}, nil
	case "grouped-fairness":
		if p.F <= 0 {
			p.F = 0.5
		}
		if p.MissyWeight <= 0 {
			p.MissyWeight = 2
		}
		if p.FriendWt <= 0 {
			p.FriendWt = 1
		}
		return GroupedFairness{
			F: p.F, CPMSplit: p.CPMSplit,
			MissyWeight: p.MissyWeight, FriendlyWeight: p.FriendWt,
		}, nil
	case "wfq":
		return WFQGrant{Weights: p.Weights}, nil
	case "malthusian":
		return Malthusian{MinAggFrac: p.MinAggFrac, ProbeEvery: p.ProbeEvery}, nil
	}
	return nil, fmt.Errorf("core: unknown policy %q (have %v)", name, PolicyNames())
}
