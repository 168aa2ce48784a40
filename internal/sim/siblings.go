package sim

import (
	"encoding/json"
	"math"
	"slices"
	"sync"

	"soemt/internal/arena"
	"soemt/internal/branch"
	"soemt/internal/core"
	"soemt/internal/mem"
	"soemt/internal/pipeline"
	"soemt/internal/workload"
)

// Siblings is a reuse scope for runs that differ only in their quota
// policy — one pair's F levels, or the points of an F sweep. The
// policy acts on the machine only through the quotas it returns at Δ
// samples (and at the warmup-end flush sample), so siblings simulate
// the same machine up to their first policy consultation, the fork
// point, and stay identical for as long as their quotas agree
// (DESIGN.md §17). Attach one scope to every sibling's Spec.Siblings:
//
//   - The first run of a family snapshots the whole machine at the
//     fork point. A later sibling restores that snapshot instead of
//     repeating the functional cache warmup and the shared part of the
//     timing warmup.
//   - Every finished run stores its trajectory: the inputs and outputs
//     of each policy consultation, plus its Result. A later sibling
//     whose policy returns exactly the recorded quotas for every
//     recorded input would retrace that run cycle for cycle, so it
//     returns a copy of the stored Result without simulating.
//
// Either way the Result is byte-identical to a run without a scope.
// Only policies that implement neither core.Granter nor core.Culler
// take part: those act on the machine outside Quotas (grant order from
// the first switch on, culling at samples). A run with a tracer
// attached may seed a scope but never restores from one, since its
// trace must cover the whole run. Nothing outlives
// the scope: dropping it frees its snapshots and trajectories.
//
// The zero value is ready to use. A Siblings is safe for concurrent
// use; siblings that run at the same time simply find less to reuse.
type Siblings struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is the shared state of the runs with one sibling key.
type family struct {
	fork  *fork
	trajs []*trajectory
}

// fork is a machine stopped just before its first policy consultation.
type fork struct {
	m *machine
	// midWarmup reports that the first Δ sample fell inside the timing
	// warmup: a restored run resumes the warmup phase. Otherwise the
	// machine stopped at the warmup's end, before ResetStats.
	midWarmup bool
}

// trajectory is one finished run as seen from the fork point.
type trajectory struct {
	calls []quotaCall
	res   *Result
}

// quotaCall is one policy consultation: its inputs and the quotas the
// policy returned.
type quotaCall struct {
	samples []core.ThreadSample
	missLat float64
	quotas  []float64
}

// quotaLog wraps a run's policy and records every consultation. The
// controller consults it only through Quotas, so wrapping leaves the
// run unchanged (it is installed only for policies that are neither
// Granters nor Cullers, whose extra methods the wrapper would hide).
type quotaLog struct {
	core.Policy
	calls []quotaCall
}

// Quotas implements core.Policy, recording the consultation.
func (l *quotaLog) Quotas(samples []core.ThreadSample, missLat float64) []float64 {
	q := l.Policy.Quotas(samples, missLat)
	l.calls = append(l.calls, quotaCall{samples: slices.Clone(samples), missLat: missLat, quotas: slices.Clone(q)})
	return q
}

// replays reports whether p, consulted with t's recorded inputs,
// returns exactly the recorded quotas every time. If so, a run under p
// from the fork point retraces t's run: the state at each sample is a
// function of the fork state and the quotas returned before it, and
// the quotas are a function of the sample's inputs (core.Policy
// requires Quotas to be pure).
func (t *trajectory) replays(p core.Policy) bool {
	for _, c := range t.calls {
		q := p.Quotas(slices.Clone(c.samples), c.missLat)
		if len(q) != len(c.quotas) {
			return false
		}
		for i := range q {
			if math.Float64bits(q[i]) != math.Float64bits(c.quotas[i]) {
				return false
			}
		}
	}
	return true
}

// sibling is one run's membership in a scope.
type sibling struct {
	scope   *Siblings
	fam     *family
	spec    Spec
	restore bool // may reuse a Result or restore a snapshot (no tracer attached)
	log     *quotaLog
}

// siblingKey identifies a family: the whole spec except the controller
// policy, plus the resolved engine and the watchdog (a reused Result
// must be one this run's watchdog would have let finish). It extends
// the fingerprint encoding, with the policy replaced by a fixed one, so
// every input the fingerprint covers is in the key too.
func siblingKey(spec Spec, engine core.Engine) (string, error) {
	spec.Machine.Controller.Policy = core.EventOnly{}
	fp, err := spec.FingerprintJSON()
	if err != nil {
		return "", err
	}
	wd, err := json.Marshal(spec.Watchdog)
	return string(fp) + engine.String() + string(wd), err
}

// join enrols a run of spec in s, or returns nil when s is nil or the
// run's policy cannot take part.
func (s *Siblings) join(spec Spec, engine core.Engine) *sibling {
	if s == nil {
		return nil
	}
	p := spec.Machine.Controller.Policy
	if _, ok := p.(core.Granter); ok {
		return nil
	}
	if _, ok := p.(core.Culler); ok {
		return nil
	}
	key, err := siblingKey(spec, engine)
	if err != nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.families == nil {
		s.families = make(map[string]*family)
	}
	fam := s.families[key]
	if fam == nil {
		fam = &family{}
		s.families[key] = fam
	}
	return &sibling{
		scope:   s,
		fam:     fam,
		spec:    spec,
		restore: spec.Obs.Tracer() == nil,
		log:     &quotaLog{Policy: p},
	}
}

// reuse returns a copy of a stored sibling's Result that this run's
// policy would retrace exactly, or nil.
func (b *sibling) reuse() *Result {
	if b == nil || !b.restore {
		return nil
	}
	b.scope.mu.Lock()
	trajs := b.fam.trajs
	b.scope.mu.Unlock()
	for _, t := range trajs {
		if t.replays(b.log.Policy) {
			return t.res.clone()
		}
	}
	return nil
}

// restorable returns the family's fork to restore from, or nil.
func (b *sibling) restorable() *fork {
	if b == nil || !b.restore {
		return nil
	}
	b.scope.mu.Lock()
	defer b.scope.mu.Unlock()
	return b.fam.fork
}

// offerFork snapshots m, stopped at the fork point, unless the family
// already has a snapshot.
func (b *sibling) offerFork(m *machine, midWarmup bool) {
	if b == nil {
		return
	}
	b.scope.mu.Lock()
	defer b.scope.mu.Unlock()
	if b.fam.fork != nil {
		return
	}
	snap, err := buildMachine(nil, b.spec, b.spec.Machine.Controller)
	if err != nil {
		return // unreachable: the live machine was built from the same spec
	}
	snap.copyFrom(m)
	b.fam.fork = &fork{m: snap, midWarmup: midWarmup}
}

// record stores the finished run's trajectory.
func (b *sibling) record(res *Result) {
	if b == nil {
		return
	}
	t := &trajectory{calls: b.log.calls, res: res.clone()}
	b.scope.mu.Lock()
	b.fam.trajs = append(b.fam.trajs, t)
	b.scope.mu.Unlock()
}

// machine is the simulated machine RunContext assembles from a spec.
type machine struct {
	hier *mem.Hierarchy
	bu   *branch.Unit
	pipe *pipeline.Pipeline
	ctl  *core.Controller
	gens []*workload.Generator
}

// buildMachine assembles spec's machine, with cfg as its controller
// configuration, carving the large arrays from a (nil = the heap).
func buildMachine(a *arena.Arena, spec Spec, cfg core.Config) (*machine, error) {
	hier, err := mem.NewHierarchyIn(a, spec.Machine.Memory)
	if err != nil {
		return nil, err
	}
	bu := branch.NewUnit(
		spec.Machine.Pipeline.BranchEntries,
		spec.Machine.Pipeline.BTBEntries,
		spec.Machine.Pipeline.RASDepth,
		spec.Machine.Pipeline.HistoryBits,
	)
	pipe, err := pipeline.NewIn(a, spec.Machine.Pipeline, hier, bu)
	if err != nil {
		return nil, err
	}
	threads := make([]*core.Thread, len(spec.Threads))
	gens := make([]*workload.Generator, len(spec.Threads))
	for i, ts := range spec.Threads {
		gens[i] = workload.NewOffset(ts.Profile, ts.Slot)
		threads[i] = &core.Thread{
			Name:   ts.Profile.Name,
			Stream: workload.NewStream(gens[i], ts.StartSeq),
			Events: ts.Events,
		}
	}
	ctl, err := core.NewController(pipe, cfg, threads)
	if err != nil {
		return nil, err
	}
	return &machine{hier: hier, bu: bu, pipe: pipe, ctl: ctl, gens: gens}, nil
}

// copyFrom overwrites m's whole state with src's, one layer at a time
// (the controller copies the pipeline and the thread streams). Both
// machines must be built from the same spec.
func (m *machine) copyFrom(src *machine) {
	m.hier.CopyFrom(src.hier)
	m.bu.CopyFrom(src.bu)
	m.ctl.CopyFrom(src.ctl)
}

// clone returns a deep copy of r. slices.Clone keeps nil and empty
// slices distinct, so the copy's JSON encoding is byte-identical to
// r's.
func (r *Result) clone() *Result {
	c := *r
	c.Threads = slices.Clone(r.Threads)
	c.Samples = slices.Clone(r.Samples)
	for i := range c.Samples {
		c.Samples[i].Threads = slices.Clone(c.Samples[i].Threads)
	}
	return &c
}
