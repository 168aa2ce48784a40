package core

import (
	"errors"
	"math"
	"testing"
)

// Tests for the N-thread quota generalization and the policy zoo
// (GroupedFairness, WFQGrant, Malthusian) — unit tests for the quota
// and classification math, controller-level tests for the Granter/
// Culler mechanism paths, and property tests shared by every policy.

// TestFairnessQuotasThreeSampleNAware is the regression test for the
// silent pair assumption in Fairness.Quotas (satellite fix in this
// PR's issue): with three samples the Eq. 9 wait term must be
// 2·CPM_min + Miss_lat, not the two-thread CPM_min + Miss_lat the
// seed implementation used for every N. Before the fix this test
// failed with q1 ≈ 1666.7 (the pair value).
func TestFairnessQuotasThreeSampleNAware(t *testing.T) {
	p := Fairness{F: 1}
	s1 := mkSample(150_000, 60_000, 10, 300) // IPM 15000, CPM 6000
	s2 := mkSample(10_000, 4_000, 10, 300)   // IPM 1000, CPM 400 (floor)
	s3 := mkSample(12_000, 6_000, 10, 300)   // IPM 1200, CPM 600
	qs := p.Quotas([]ThreadSample{s1, s2, s3}, 300)

	// wait = (3-1)·400 + 300 = 1100; q1 = 15000/6300 · 1100 = 2619.0.
	estST1 := 15_000.0 / 6_300.0
	want := estST1 * (2*400 + 300)
	if !almost(qs[0], want, 1.0) {
		t.Errorf("3-thread q1 = %.1f, want %.1f ((N-1)·CPM_min wait term)", qs[0], want)
	}
	// The pair formula would have produced 15000/6300·700 = 1666.7 —
	// make the distinction explicit so a reintroduced pair assumption
	// cannot sneak past the tolerance.
	if pairQ := estST1 * (400 + 300); math.Abs(qs[0]-pairQ) < 100 {
		t.Errorf("q1 = %.1f matches the pair wait term %.1f: Quotas regressed to the 2-thread formula", qs[0], pairQ)
	}
	// Miss-bound threads still saturate at IPM (encoded as quota 0).
	if qs[1] != 0 || qs[2] != 0 {
		t.Errorf("miss-bound quotas = %v, %v; want 0, 0", qs[1], qs[2])
	}

	// At N = 2 the factor is 1: bit-identical to the paper's literal
	// pair formula.
	pairQs := p.Quotas([]ThreadSample{s1, s2}, 300)
	ref := s1.EstST / 1 * (400 + 300)
	if pairQs[0] != ref {
		t.Errorf("2-thread quota %v != paper pair formula %v; N generalization must be exact at N=2", pairQs[0], ref)
	}
}

// Four-thread fixture for GroupedFairness: two missy threads (CPM 400
// and 1500 — a short miss distance means frequent misses) and two
// cache-friendly ones (CPM 6000 and 24000), split at 3000.
func groupedSamples() []ThreadSample {
	return []ThreadSample{
		mkSample(10_000, 4_000, 10, 300),      // m1: CPM 400 (missy floor)
		mkSample(150_000, 15_000, 10, 300),    // m2: CPM 1500, quota binds
		mkSample(150_000, 60_000, 10, 300),    // f1: CPM 6000 (friendly floor)
		mkSample(1_200_000, 240_000, 10, 300), // f2: CPM 24000, quota binds
	}
}

func TestGroupedFairnessQuotasUseGroupFloor(t *testing.T) {
	samples := groupedSamples()
	grouped := GroupedFairness{F: 1, CPMSplit: 3000}.Quotas(samples, 300)
	plain := Fairness{F: 1}.Quotas(samples, 300)

	// Missy members are budgeted from the missy floor (400), which is
	// also the global floor: identical to plain Fairness.
	if grouped[1] != plain[1] || grouped[1] <= 0 {
		t.Errorf("missy quota = %v, plain = %v; must be equal and binding", grouped[1], plain[1])
	}
	// The friendly member's wait term uses its own group's floor
	// (6000), not the global 400: quota 120000/24300·(3·6000+300) ≈
	// 90370 versus plain ≈ 7407 — an order of magnitude looser, fewer
	// forced switches on the hog.
	wantFriendly := 120_000.0 / 24_300.0 * (3*6_000 + 300)
	if !almost(grouped[3], wantFriendly, 1.0) {
		t.Errorf("friendly quota = %.1f, want %.1f (group floor 6000)", grouped[3], wantFriendly)
	}
	if grouped[3] <= plain[3] {
		t.Errorf("friendly quota %v must exceed (be looser than) plain Fairness %v", grouped[3], plain[3])
	}
	// Threads at their group floor saturate at IPM exactly like plain
	// Fairness.
	if grouped[0] != 0 || grouped[2] != 0 {
		t.Errorf("floor threads' quotas = %v, %v; want 0, 0 (saturated)", grouped[0], grouped[2])
	}
}

func TestGroupedFairnessAdaptiveSplit(t *testing.T) {
	samples := groupedSamples()
	// Midpoint of [400, 24000] is 12200: CPM 6000 lands missy (below
	// the midpoint), so the adaptive split groups {m1, m2, f1} vs {f2}.
	adaptive := GroupedFairness{F: 1}
	missy := adaptive.classify(samples)
	want := []bool{true, true, true, false}
	for i := range want {
		if missy[i] != want[i] {
			t.Errorf("adaptive classify[%d] = %v, want %v", i, missy[i], want[i])
		}
	}
	// Empty windows contribute no CPM evidence and stay friendly.
	missy = adaptive.classify([]ThreadSample{{}, {}})
	if missy[0] || missy[1] {
		t.Error("empty-window threads must not classify missy")
	}
}

func TestGroupedFairnessInvertNegativeControl(t *testing.T) {
	samples := groupedSamples()
	inv := GroupedFairness{F: 1, CPMSplit: 3000, Invert: true}.Quotas(samples, 300)
	// The mis-grouped missy thread inherits the friendly floor (6000):
	// its Eq. 9 value saturates past IPM and its quota stops binding —
	// the policy no longer enforces anything on the group the paper says
	// needs headroom.
	if inv[1] != 0 {
		t.Errorf("inverted missy quota = %v, want 0 (saturated by the friendly floor)", inv[1])
	}
	// The friendly hog gets the missy floor (400): a drastically tighter
	// quota than its group entitles it to.
	wantTight := 120_000.0 / 24_300.0 * (3*400 + 300)
	if !almost(inv[3], wantTight, 1.0) {
		t.Errorf("inverted friendly quota = %.1f, want %.1f", inv[3], wantTight)
	}
	// Grant weights swap too: normally the missy pair gets the boost.
	g := GroupedFairness{F: 1, CPMSplit: 3000, MissyWeight: 4, FriendlyWeight: 1}
	w := g.GrantWeights(samples)
	if w[0] != 4 || w[1] != 4 || w[2] != 1 || w[3] != 1 {
		t.Errorf("grant weights = %v, want [4 4 1 1]", w)
	}
	g.Invert = true
	w = g.GrantWeights(samples)
	if w[0] != 1 || w[1] != 1 || w[2] != 4 || w[3] != 4 {
		t.Errorf("inverted grant weights = %v, want [1 1 4 4]", w)
	}
}

func TestWFQGrantWeights(t *testing.T) {
	samples := groupedSamples()
	// Quotas: never any forced switch points.
	for i, q := range (WFQGrant{Weights: []float64{2, 1}}).Quotas(samples, 300) {
		if q != 0 {
			t.Errorf("wfq quota[%d] = %v, want 0", i, q)
		}
	}
	// Weights: configured prefix, missing and degenerate entries
	// default to 1.
	p := WFQGrant{Weights: []float64{2, 0, math.NaN()}}
	w := p.GrantWeights(samples)
	if len(w) != 4 {
		t.Fatalf("weights length = %d, want 4", len(w))
	}
	if w[0] != 2 || w[1] != 1 || w[2] != 1 || w[3] != 1 {
		t.Errorf("weights = %v, want [2 1 1 1]", w)
	}
}

func TestMalthusianCull(t *testing.T) {
	samples := []ThreadSample{
		mkSample(50_000, 20_000, 10, 300),
		mkSample(1_000, 20_000, 10, 300), // least window progress
		mkSample(30_000, 20_000, 10, 300),
	}
	p := Malthusian{MinAggFrac: 0.9, ProbeEvery: 4}
	active := []bool{true, true, true}

	// Healthy window: nothing demoted.
	p.Cull(&CullState{Samples: samples, Active: active, Window: 1, AggIPC: 1.0, PeakIPC: 1.0})
	if !active[0] || !active[1] || !active[2] {
		t.Fatalf("healthy window demoted a thread: %v", active)
	}
	// Collapsed window: the worst-progress thread is demoted.
	p.Cull(&CullState{Samples: samples, Active: active, Window: 2, AggIPC: 0.5, PeakIPC: 1.0})
	if active[1] || !active[0] || !active[2] {
		t.Fatalf("collapse must demote thread 1 only: %v", active)
	}
	// Still collapsed: demote the next worst; but never the last one.
	p.Cull(&CullState{Samples: samples, Active: active, Window: 3, AggIPC: 0.5, PeakIPC: 1.0})
	if active[2] || !active[0] {
		t.Fatalf("second collapse must demote thread 2: %v", active)
	}
	p.Cull(&CullState{Samples: samples, Active: active, Window: 5, AggIPC: 0.1, PeakIPC: 1.0})
	if !active[0] {
		t.Fatalf("the last active thread must never be demoted: %v", active)
	}
	// Probe window: everyone comes back.
	p.Cull(&CullState{Samples: samples, Active: active, Window: 8, AggIPC: 0.1, PeakIPC: 1.0})
	if !active[0] || !active[1] || !active[2] {
		t.Fatalf("probe window must reactivate all threads: %v", active)
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := PolicyByName(name, PolicyParams{})
		if err != nil {
			t.Fatalf("PolicyByName(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("PolicyByName(%q).Name() = %q", name, p.Name())
		}
	}
	if p, err := PolicyByName("", PolicyParams{}); err != nil || p.Name() != "event-only" {
		t.Errorf("empty name = (%v, %v), want event-only", p, err)
	}
	if _, err := PolicyByName("round-robin", PolicyParams{}); err == nil {
		t.Error("unknown policy name must error")
	}
	// Defaults: fairness-family policies fall back to F = 1/2,
	// time-share to 50k cycles.
	if p, _ := PolicyByName("fairness", PolicyParams{}); p.(Fairness).F != 0.5 {
		t.Errorf("fairness default F = %v, want 0.5", p.(Fairness).F)
	}
	if p, _ := PolicyByName("grouped-fairness", PolicyParams{}); p.(GroupedFairness).F != 0.5 {
		t.Errorf("grouped-fairness default F = %v, want 0.5", p.(GroupedFairness).F)
	}
	if g := mustGrouped(t); g.MissyWeight != 2 || g.FriendlyWeight != 1 {
		t.Errorf("grouped-fairness default weights = %v:%v, want 2:1", g.MissyWeight, g.FriendlyWeight)
	}
	if p, _ := PolicyByName("time-share", PolicyParams{}); p.(TimeShare).QuotaCycles != 50_000 {
		t.Errorf("time-share default quota = %v, want 50000", p.(TimeShare).QuotaCycles)
	}
	if p, _ := PolicyByName("fairness", PolicyParams{F: 0.25}); p.(Fairness).F != 0.25 {
		t.Error("explicit F must pass through")
	}
}

func mustGrouped(t *testing.T) GroupedFairness {
	t.Helper()
	p, err := PolicyByName("grouped-fairness", PolicyParams{})
	if err != nil {
		t.Fatal(err)
	}
	return p.(GroupedFairness)
}

// zooPolicies returns one configured instance of every policy for the
// shared property tests.
func zooPolicies() []Policy {
	return []Policy{
		EventOnly{},
		Fairness{F: 1}, Fairness{F: 0.25}, Fairness{F: 0},
		TimeShare{QuotaCycles: 20_000}, TimeShare{},
		GroupedFairness{F: 1, CPMSplit: 3000},
		GroupedFairness{F: 0.5},
		GroupedFairness{F: 0.5, Invert: true},
		WFQGrant{}, WFQGrant{Weights: []float64{2, 1, 1}},
		Malthusian{}, Malthusian{MinAggFrac: 0.8, ProbeEvery: 4},
	}
}

// propertySampleSets is the degenerate-input corpus from the issue:
// F = 0 is covered by the policy list above; the sample shapes cover
// all-zero CPM windows, the single-thread degenerate, and a 64-thread
// slice.
func propertySampleSets() [][]ThreadSample {
	sets := [][]ThreadSample{
		nil,
		{},
		{mkSample(1_000, 400, 1, 300)}, // single-thread degenerate
		{mkSample(0, 0, 0, 300), mkSample(0, 0, 0, 300)},               // all-empty
		{mkSample(1_000, 400, 0, 300), mkSample(900, 500, 0, 300)},     // zero misses
		{mkSample(0, 100_000, 50, 300), mkSample(0, 100_000, 50, 300)}, // all-zero IPM/IPC
		groupedSamples(),
		{ // hand-poisoned rates: NaN/Inf must not propagate
			{Window: mkSample(1, 1, 1, 300).Window, IPM: math.NaN(), CPM: math.Inf(1), EstST: math.NaN()},
			{Window: mkSample(1, 1, 1, 300).Window, IPM: math.Inf(1), CPM: 0, EstST: math.Inf(1)},
		},
	}
	wide := make([]ThreadSample, 64)
	for i := range wide {
		wide[i] = mkSample(uint64(1_000*(i+1)), uint64(400*(i+1)), uint64(i%7), 300)
	}
	return append(sets, wide)
}

// TestPolicyQuotaProperties pins the invariants every policy (seed and
// zoo) must satisfy for arbitrary ThreadSample slices: the quota slice
// has the input length, and every quota is finite and non-negative.
func TestPolicyQuotaProperties(t *testing.T) {
	for _, p := range zooPolicies() {
		for si, samples := range propertySampleSets() {
			qs := p.Quotas(samples, 300)
			if len(qs) != len(samples) {
				t.Fatalf("%s set %d: len(quotas) = %d, want %d", p.Name(), si, len(qs), len(samples))
			}
			for i, q := range qs {
				if math.IsNaN(q) || math.IsInf(q, 0) || q < 0 {
					t.Errorf("%s set %d: quota[%d] = %v; must be finite and non-negative", p.Name(), si, i, q)
				}
			}
			if g, ok := p.(Granter); ok {
				w := g.GrantWeights(samples)
				for i, v := range w {
					if i < len(samples) && (math.IsNaN(v) || math.IsInf(v, 0) || v <= 0) {
						t.Errorf("%s set %d: weight[%d] = %v; must be finite positive", p.Name(), si, i, v)
					}
				}
			}
		}
	}
}

// FuzzPolicyQuotas feeds arbitrary three-thread counter windows (plus
// a fairness target) through every policy and asserts the same
// invariants as TestPolicyQuotaProperties. Wired alongside the
// Fingerprint/Validate fuzzers in ci (go test -fuzz is opt-in; the
// seed corpus always runs).
func FuzzPolicyQuotas(f *testing.F) {
	f.Add(1.0, uint64(150_000), uint64(60_000), uint64(10),
		uint64(10_000), uint64(4_000), uint64(10),
		uint64(0), uint64(0), uint64(0))
	f.Add(0.0, uint64(0), uint64(100_000), uint64(50),
		uint64(1), uint64(1), uint64(1),
		uint64(1<<40), uint64(1), uint64(1<<40))
	f.Add(0.25, uint64(1_000), uint64(400), uint64(0),
		uint64(900), uint64(500), uint64(0),
		uint64(12_000), uint64(6_000), uint64(10))
	f.Fuzz(func(t *testing.T, fTarget float64,
		i1, c1, m1, i2, c2, m2, i3, c3, m3 uint64) {
		samples := []ThreadSample{
			mkSample(i1, c1, m1, 300),
			mkSample(i2, c2, m2, 300),
			mkSample(i3, c3, m3, 300),
		}
		policies := []Policy{
			Fairness{F: fTarget},
			GroupedFairness{F: fTarget},
			GroupedFairness{F: fTarget, CPMSplit: 3000, Invert: true},
			TimeShare{QuotaCycles: fTarget * 1000},
			WFQGrant{Weights: []float64{fTarget, 1}},
			Malthusian{MinAggFrac: fTarget},
		}
		for _, p := range policies {
			qs := p.Quotas(samples, 300)
			if len(qs) != len(samples) {
				t.Fatalf("%s: len(quotas) = %d, want %d", p.Name(), len(qs), len(samples))
			}
			for i, q := range qs {
				if math.IsNaN(q) || math.IsInf(q, 0) || q < 0 {
					t.Fatalf("%s: quota[%d] = %v for samples %+v", p.Name(), i, q, samples)
				}
			}
		}
	})
}

// testCullOne is a test-only Culler that permanently demotes every
// thread but index 0 — the degenerate mask that exercises switch
// suppression and the single-thread fast-forward fallback.
type testCullOne struct{ EventOnly }

func (testCullOne) Name() string { return "test-cull-one" }
func (testCullOne) Cull(st *CullState) {
	for i := range st.Active {
		st.Active[i] = i == 0
	}
}

// testGrantCull implements both optional extensions, which no policy
// may.
type testGrantCull struct{ testCullOne }

func (testGrantCull) GrantWeights([]ThreadSample) []float64 { return nil }

func TestValidateRejectsGranterAndCuller(t *testing.T) {
	cfg := testConfig(testGrantCull{})
	var ce *ConfigError
	if err := cfg.Validate(); !errors.As(err, &ce) || ce.Field != "Policy" {
		t.Fatalf("Validate = %v, want a Policy ConfigError", err)
	}
	threads := []*Thread{newThread(hogProfile(), 0), newThread(victimProfile(), 1)}
	if _, err := NewController(newMachine(), cfg, threads); !errors.As(err, &ce) {
		t.Fatalf("NewController = %v, want a ConfigError", err)
	}
	for _, p := range []Policy{testCullOne{}, GroupedFairness{F: 1}, WFQGrant{}, Malthusian{}} {
		if err := testConfig(p).Validate(); err != nil {
			t.Errorf("%s: Validate = %v", p.Name(), err)
		}
	}
}

// TestCullerSuppressesSwitches runs a pair under a Culler that demotes
// the victim at the first Δ sample: from then on the machine must
// behave like a single-thread run (no switches, no livelock) while the
// demoted thread keeps its architectural state.
func TestCullerSuppressesSwitches(t *testing.T) {
	pipe := newMachine()
	threads := []*Thread{newThread(hogProfile(), 0), newThread(victimProfile(), 1)}
	c := mustController(pipe, testConfig(testCullOne{}), threads)
	runCycles(c, 200_000)

	act := c.active
	if !act[0] || act[1] {
		t.Fatalf("active mask = %v, want [true false]", act)
	}
	// Switches can only have happened before the first sample (cycle
	// 20k); afterwards every switch cause is suppressed.
	preSample := c.Switches().Total()
	before0 := threads[0].retired
	runCycles(c, 200_000)
	if got := c.Switches().Total(); got != preSample {
		t.Errorf("switches grew from %d to %d after the cull; must be suppressed", preSample, got)
	}
	if threads[0].retired == before0 {
		t.Error("sole active thread stopped retiring: suppression livelocked the machine")
	}
	if c.cur != 0 {
		t.Errorf("running thread = %d, want 0", c.cur)
	}
}

// TestZooFastForwardLockstep extends the engine-equivalence guarantee
// to the zoo mechanism paths: WFQ grant ordering (Granter) and switch
// suppression under a culled mask (Culler) must be bit-identical
// between the fast-forward and cycle-by-cycle engines at every slice
// boundary.
func TestZooFastForwardLockstep(t *testing.T) {
	cases := []struct {
		name   string
		policy Policy
	}{
		{"wfq", WFQGrant{Weights: []float64{2, 1, 1}}},
		{"grouped", GroupedFairness{F: 0.5, CPMSplit: 3000, MissyWeight: 2, FriendlyWeight: 1}},
		{"malthusian", Malthusian{MinAggFrac: 0.95, ProbeEvery: 3}},
		{"cull-one", testCullOne{}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			mk := func() *Controller {
				pipe := newMachine()
				threads := []*Thread{
					newThread(hogProfile(), 0),
					newThread(victimProfile(), 1),
					newThread(victimProfile2(), 2),
				}
				return mustController(pipe, testConfig(tc.policy), threads)
			}
			ff := mk()
			ff.SetEngine(EngineFastForward)
			ref := mk()
			const total = 300_000
			for _, slice := range []uint64{977, 1 << 62} {
				for ff.now < total {
					ff.Advance(1<<62, total, 0, slice)
					ref.Advance(1<<62, total, 0, slice)
					sa, sb := observableState(ff), observableState(ref)
					if sa != sb {
						t.Fatalf("engines diverged near cycle %d\nfast-forward: %s\nreference:    %s", ff.now, sa, sb)
					}
				}
			}
			if ff.Switches().Total() == 0 {
				t.Fatal("zoo policy produced no switches; lockstep test lost its subject")
			}
		})
	}
}

// TestWFQGrantOrderFollowsCredits pins the Granter dispatch rule on
// the controller: with strongly asymmetric weights the heavy thread
// must accumulate residency roughly in proportion, and grant credits
// must stay finite and monotone.
func TestWFQGrantOrderFollowsCredits(t *testing.T) {
	pipe := newMachine()
	// Three copies of the same missy profile so miss behaviour is
	// symmetric and only the weights differentiate residency.
	threads := []*Thread{
		newThread(victimProfile(), 0),
		newThread(victimProfile(), 1),
		newThread(victimProfile(), 2),
	}
	c := mustController(pipe, testConfig(WFQGrant{Weights: []float64{4, 1, 1}}), threads)
	runCycles(c, 600_000)

	if c.Switches().Total() == 0 {
		t.Fatal("no switches")
	}
	cyc := make([]float64, 3)
	for i, th := range threads {
		cnt := th.Counters()
		if cnt.Instrs == 0 {
			t.Fatalf("thread %d starved outright under WFQ", i)
		}
		cyc[i] = float64(cnt.Cycles)
	}
	// Weight 4 vs 1: the heavy thread must get visibly more residency
	// than either light thread (strict ordering, not the exact 4:1 —
	// miss stalls and the max-cycles quota blur the ratio).
	if cyc[0] <= cyc[1] || cyc[0] <= cyc[2] {
		t.Errorf("weighted thread residency %v not dominant; WFQ grant ordering inert", cyc)
	}
	// And the light threads must be near-symmetric.
	if r := cyc[1] / cyc[2]; r < 0.5 || r > 2 {
		t.Errorf("equal-weight threads diverged: %v", cyc)
	}
	for i, cr := range c.grantCredit {
		if math.IsNaN(cr) || math.IsInf(cr, 0) || cr < 0 {
			t.Errorf("grant credit[%d] = %v; must be finite non-negative", i, cr)
		}
	}
}

// TestMalthusianControllerInvariants runs an overcommitted 4-thread
// missy mix under Malthusian and asserts the mechanism-level
// guarantees: the mask never empties, probes keep every thread making
// some progress, and the run terminates.
func TestMalthusianControllerInvariants(t *testing.T) {
	pipe := newMachine()
	threads := []*Thread{
		newThread(victimProfile(), 0),
		newThread(victimProfile(), 1),
		newThread(victimProfile2(), 2),
		newThread(hogProfile(), 3),
	}
	c := mustController(pipe, testConfig(Malthusian{MinAggFrac: 0.99, ProbeEvery: 3}), threads)
	runCycles(c, 600_000)

	anyActive := false
	for _, on := range c.active {
		anyActive = anyActive || on
	}
	if !anyActive {
		t.Fatal("active mask emptied; the controller floor failed")
	}
	for i, th := range threads {
		if th.retired == 0 {
			t.Errorf("thread %d retired nothing; reactivation probes must keep demoted threads alive", i)
		}
	}
	if c.Switches().Total() == 0 {
		t.Fatal("no switches at all")
	}
}

// TestGroupedFairnessName exercises the remaining Name() surfaces so
// the policy list in PolicyNames stays honest.
func TestZooPolicyNames(t *testing.T) {
	names := map[string]bool{}
	for _, p := range []Policy{GroupedFairness{}, WFQGrant{}, Malthusian{}} {
		n := p.Name()
		if n == "" || names[n] {
			t.Errorf("policy name %q empty or duplicated", n)
		}
		names[n] = true
	}
	found := 0
	for _, n := range PolicyNames() {
		if names[n] {
			found++
		}
	}
	if found != 3 {
		t.Errorf("PolicyNames() missing zoo entries: %v", PolicyNames())
	}
}
