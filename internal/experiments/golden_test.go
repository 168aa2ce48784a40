package experiments

import (
	"context"
	"fmt"
	"math"
	"testing"

	"soemt/internal/core"
	"soemt/internal/model"
	"soemt/internal/sim"
	"soemt/internal/workload"
)

// Golden-figure differential suite: every test pins a paper-shape
// invariant recorded in EXPERIMENTS.md so a regression in the model or
// the simulator shows up as a concrete figure changing, not as a
// silent drift. Analytical quantities (Table 2, Figure 3) are
// closed-form and asserted near-exactly; simulated quantities
// (Example 1) get tolerance bands wide enough for the tiny test scale
// but narrow enough to catch a broken quota formula — which
// TestGoldenDetectsQuotaPerturbation demonstrates by injecting one.

func near(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v ± %v", name, got, want, tol)
	}
}

func within(t *testing.T, name string, got, lo, hi float64) {
	t.Helper()
	if math.IsNaN(got) || got < lo || got > hi {
		t.Errorf("%s = %v, want in [%v, %v]", name, got, lo, hi)
	}
}

// TestGoldenTable2 pins the closed-form Example 2 numbers
// (EXPERIMENTS.md "Table 2"): the paper's Table 2 to the precision it
// prints, exactly reproducible because Eqs. 1-10 have no simulation
// noise.
func TestGoldenTable2(t *testing.T) {
	sys := model.Example2System()
	near(t, "IPC_ST thread1", sys.Threads[0].IPCST(sys.MissLat), 2.381, 0.001)
	near(t, "IPC_ST thread2", sys.Threads[1].IPCST(sys.MissLat), 1.429, 0.001)

	rows, err := model.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("Table2 rows = %d, want 3 (F=0, 1/2, 1)", len(rows))
	}
	byF := map[float64]model.Table2Row{}
	for _, r := range rows {
		byF[r.F] = r
	}

	f0 := byF[0]
	near(t, "slowdown1@F=0", f0.Slowdown[0], 1.02, 0.005)
	near(t, "slowdown2@F=0", f0.Slowdown[1], 9.21, 0.01)
	near(t, "fairness@F=0", f0.Fairness, 0.11, 0.005)
	// Without enforcement the quota is the miss distance itself.
	near(t, "IPSw1@F=0", f0.IPSw[0], 15000, 0.5)
	near(t, "IPSw2@F=0", f0.IPSw[1], 1000, 0.5)

	fh := byF[0.5]
	near(t, "slowdown ratio@F=1/2", fh.Slowdown[1]/fh.Slowdown[0], 2.0, 0.005)

	f1 := byF[1]
	near(t, "IPSw1@F=1", f1.IPSw[0], 1667, 1)
	near(t, "slowdown1@F=1", f1.Slowdown[0], 1.60, 0.01)
	near(t, "slowdown2@F=1", f1.Slowdown[1], 1.60, 0.01)
	near(t, "fairness@F=1", f1.Fairness, 1.0, 0.001)

	// Enforcement trades aggregate throughput for fairness: total IPC
	// must fall monotonically in F for this (unfair) pair.
	if !(f0.Total > fh.Total && fh.Total > f1.Total) {
		t.Errorf("total IPC not monotone in F: %v, %v, %v", f0.Total, fh.Total, f1.Total)
	}
}

// TestGoldenFigure3 pins the analytical throughput-vs-F shapes
// (EXPERIMENTS.md "Figure 3"): equal-IPC_no_miss pairs degrade only a
// few percent, a missy fast thread improves throughput up to ~+10%, a
// missy slow thread degrades it up to ~-13%, and every curve is 0 at
// F=0 by construction.
func TestGoldenFigure3(t *testing.T) {
	cases, err := model.Figure3(21)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 6 {
		t.Fatalf("Figure3 cases = %d, want 6", len(cases))
	}
	bestF1, worstF1 := math.Inf(-1), math.Inf(1)
	equalWorst := 0.0
	deltaF1 := map[string]float64{}
	for _, c := range cases {
		last := len(c.DeltaPc) - 1
		if c.F[0] != 0 || c.F[last] != 1 {
			t.Fatalf("%s: F sweep must span [0, 1], got [%v, %v]", c.Label, c.F[0], c.F[last])
		}
		near(t, c.Label+" delta@F=0", c.DeltaPc[0], 0, 1e-9)
		d1 := c.DeltaPc[last]
		deltaF1[c.Label] = d1
		bestF1 = math.Max(bestF1, d1)
		worstF1 = math.Min(worstF1, d1)
		if c.System.Threads[0].IPCNoMiss == c.System.Threads[1].IPCNoMiss {
			for i, d := range c.DeltaPc {
				if d > 1e-9 {
					t.Errorf("%s: equal-IPC pair improves (%+.2f%% at F=%.2f); must only degrade",
						c.Label, d, c.F[i])
					break
				}
			}
			equalWorst = math.Min(equalWorst, d1)
		}
	}
	// The Example 2 combination is the paper's headline equal-IPC curve
	// (EXPERIMENTS.md records -3.7% worst at F=1); the stretched
	// IPM=[50000,500] combo degrades somewhat more.
	near(t, "Example2 combo delta@F=1 [%]", deltaF1["IPCnm=[2.5,2.5] IPM=[15000,1000]"], -3.7, 0.3)
	within(t, "equal-IPC worst delta@F=1 [%]", equalWorst, -8, -2)
	within(t, "best delta@F=1 [%] (fast thread missy)", bestF1, 8, 12)
	within(t, "worst delta@F=1 [%] (slow thread missy)", worstF1, -15, -11)
}

// starvationInvariants checks the Example 1 / Figure 1 shape on a
// gcc:eon pair run (EXPERIMENTS.md "Example 1"): without enforcement
// the missy thread (gcc) is starved many times below its single-thread
// pace while the co-thread is hardly affected, and enforcement at F=1
// recovers a decisively fairer split. Returns the violations instead
// of failing directly so the perturbation test below can assert the
// suite WOULD fail on a broken quota formula.
func starvationInvariants(pr *PairRun) []string {
	var bad []string
	sp := pr.Speedups(0)
	if !(sp[0] < 0.35) {
		bad = append(bad, fmt.Sprintf("gcc speedup at F=0 = %.3f, want < 0.35 (starved)", sp[0]))
	}
	if !(sp[1] > 0.6) {
		bad = append(bad, fmt.Sprintf("eon speedup at F=0 = %.3f, want > 0.6 (hardly affected)", sp[1]))
	}
	if f0 := pr.Fairness(0); !(f0 < 0.4) {
		bad = append(bad, fmt.Sprintf("fairness at F=0 = %.3f, want < 0.4", f0))
	}
	bad = append(bad, enforcementInvariant(pr.Fairness(0), pr.Fairness(1))...)
	return bad
}

// enforcementInvariant is the part of the Example 1 shape the quota
// formula is responsible for: F=1 enforcement must improve fairness
// decisively, not marginally, over event-only SOE.
func enforcementInvariant(fair0, fair1 float64) []string {
	if !(fair1 > 1.5*fair0) {
		return []string{fmt.Sprintf(
			"fairness at F=1 = %.3f, want > 1.5x the F=0 value %.3f (enforcement must help)",
			fair1, fair0)}
	}
	return nil
}

// TestGoldenExample1 runs the starvation demonstration at test scale
// and asserts the paper shape.
func TestGoldenExample1(t *testing.T) {
	r := NewRunner(testOptions())
	pr, err := r.RunPairContext(context.Background(), Pair{"gcc", "eon"})
	if err != nil {
		t.Fatal(err)
	}
	sp := pr.Speedups(0)
	t.Logf("golden example1: speedups@F=0 = [%.3f %.3f], fairness@F=0 = %.3f, fairness@F=1 = %.3f",
		sp[0], sp[1], pr.Fairness(0), pr.Fairness(1))
	for _, v := range starvationInvariants(pr) {
		t.Error(v)
	}
}

// perturbedPolicy injects a deliberate bug into a quota policy: every
// Eq. 9 quota is scaled by Scale, emulating a broken constant in the
// formula. Scale >> 1 weakens enforcement toward event-only behaviour.
// Exported fields so the fingerprint serializes the perturbation and
// the cache cannot conflate it with the genuine policy.
type perturbedPolicy struct {
	Inner core.Policy
	Scale float64
}

func (p perturbedPolicy) Name() string { return "perturbed-" + p.Inner.Name() }

func (p perturbedPolicy) Quotas(samples []core.ThreadSample, missLat float64) []float64 {
	q := p.Inner.Quotas(samples, missLat)
	for i := range q {
		q[i] *= p.Scale
	}
	return q
}

// TestGoldenDetectsQuotaPerturbation is the suite's negative control:
// with the Eq. 9 quotas scaled 16x up (forced switches ~16x rarer),
// the F=1 run must degrade toward event-only fairness and the
// enforcement invariant must flag it. If this test ever fails, the
// golden suite has lost its power to detect a broken quota formula.
func TestGoldenDetectsQuotaPerturbation(t *testing.T) {
	r := NewRunner(testOptions())
	pr, err := r.RunPairContext(context.Background(), Pair{"gcc", "eon"})
	if err != nil {
		t.Fatal(err)
	}

	m := r.Opts.Machine
	m.Controller.Policy = perturbedPolicy{Inner: core.Fairness{F: 1}, Scale: 16}
	res, err := sim.Run(sim.Spec{
		Machine: m,
		Threads: []sim.ThreadSpec{
			{Profile: workload.MustByName("gcc"), Slot: 0},
			{Profile: workload.MustByName("eon"), Slot: 1},
		},
		Scale:    r.Opts.Scale,
		Watchdog: r.Opts.Watchdog,
	})
	if err != nil {
		t.Fatal(err)
	}
	sp := core.Speedups([]float64{res.Threads[0].IPC, res.Threads[1].IPC}, pr.ST[:])
	perturbedFair := core.FairnessMetric(sp)
	t.Logf("perturbed F=1 fairness = %.3f (genuine %.3f, F=0 %.3f)",
		perturbedFair, pr.Fairness(1), pr.Fairness(0))

	// The genuine run passes the invariant...
	if bad := enforcementInvariant(pr.Fairness(0), pr.Fairness(1)); len(bad) != 0 {
		t.Fatalf("genuine F=1 run unexpectedly fails the invariant: %v", bad)
	}
	// ...and the perturbed run must fail it — otherwise the band is
	// too loose to catch a quota-formula regression.
	if bad := enforcementInvariant(pr.Fairness(0), perturbedFair); len(bad) == 0 {
		t.Fatalf("perturbed quota formula (16x) passed the enforcement invariant: fairness %.3f vs F=0 %.3f",
			perturbedFair, pr.Fairness(0))
	}
	// Weakened enforcement must also show up as fewer forced switches
	// than the genuine F=1 run.
	if res.Switches.Quota >= pr.ByF[1].Switches.Quota {
		t.Errorf("perturbed run forced %d switches, genuine %d; expected fewer",
			res.Switches.Quota, pr.ByF[1].Switches.Quota)
	}
}

// quadMix is the 4-thread starvation workload: one missy thread (gcc,
// the Example 1 victim) against three compute-bound hogs. Under
// event-only SOE the hogs almost never yield, so gcc starves harder
// than in the pair case.
func quadMix() []string { return []string{"gcc", "eon", "gzip", "crafty"} }

// runQuad runs the quad mix under policy and returns the achieved
// min-over-pairs fairness plus the per-thread speedups.
func runQuad(t *testing.T, policy core.Policy) (float64, []float64, *sim.Result) {
	t.Helper()
	opts := testOptions()
	m := opts.Machine
	m.Controller.Policy = policy
	var threads []sim.ThreadSpec
	for i, n := range quadMix() {
		threads = append(threads, sim.ThreadSpec{Profile: workload.MustByName(n), Slot: i})
	}
	res, err := sim.Run(sim.Spec{Machine: m, Threads: threads, Scale: opts.Scale, Watchdog: opts.Watchdog})
	if err != nil {
		t.Fatalf("quad run (%s): %v", policy.Name(), err)
	}
	ipc := make([]float64, len(threads))
	st := make([]float64, len(threads))
	for i, ts := range threads {
		ipc[i] = res.Threads[i].IPC
		ref, err := sim.RunSingle(opts.Machine, ts, opts.Scale)
		if err != nil {
			t.Fatalf("single-thread reference %s: %v", ts.Profile.Name, err)
		}
		st[i] = ref.Threads[0].IPC
	}
	sp := core.Speedups(ipc, st)
	return core.FairnessMetric(sp), sp, res
}

// TestGoldenQuadStarvation extends the Example 1 invariant to N = 4
// (this PR's golden-suite satellite): event-only SOE starves the missy
// thread among three hogs, and both the generalized Fairness policy
// and GroupedFairness recover a min-over-pairs fairness decisively
// above the event-only floor — the N-thread analogue of the Table 2
// fairness floor at F=0 (0.11).
func TestGoldenQuadStarvation(t *testing.T) {
	fair0, sp0, _ := runQuad(t, core.EventOnly{})
	t.Logf("quad event-only: speedups = %.3f, fairness = %.3f", sp0, fair0)
	// gcc must be the starved minimum by a wide margin. With 4-way
	// sharing even the hogs sit well below their single-thread pace
	// (each gets at most ~1/4 of the core), so the invariant is
	// relative: every co-runner beats the missy thread at least 2x.
	if !(sp0[0] < 0.1) {
		t.Errorf("gcc speedup at F=0 = %.3f, want < 0.1 (starved among 3 hogs)", sp0[0])
	}
	for i, s := range sp0[1:] {
		if !(s > 2*sp0[0]) {
			t.Errorf("hog %s speedup at F=0 = %.3f, want > 2x the missy thread's %.3f", quadMix()[i+1], s, sp0[0])
		}
	}
	if !(fair0 < 0.11) {
		t.Errorf("quad fairness at F=0 = %.3f, want < 0.11 (below the Table 2 pair floor)", fair0)
	}

	fairF, spF, resF := runQuad(t, core.Fairness{F: 1})
	t.Logf("quad fairness F=1: speedups = %.3f, fairness = %.3f, forced = %d",
		spF, fairF, resF.Switches.Forced())
	for _, v := range quadInvariant(fair0, fairF) {
		t.Errorf("fairness policy: %s", v)
	}

	fairG, spG, resG := runQuad(t, core.GroupedFairness{F: 1, MissyWeight: 2, FriendlyWeight: 1})
	t.Logf("quad grouped F=1: speedups = %.3f, fairness = %.3f, forced = %d",
		spG, fairG, resG.Switches.Forced())
	for _, v := range quadInvariant(fair0, fairG) {
		t.Errorf("grouped-fairness policy: %s", v)
	}
}

// visitShare returns thread i's fraction of all completed dispatches.
func visitShare(res *sim.Result, i int) float64 {
	var total uint64
	for _, tr := range res.Threads {
		total += tr.Visits
	}
	if total == 0 {
		return 0
	}
	return float64(res.Threads[i].Visits) / float64(total)
}

// quadInvariant is the N = 4 starvation bound from the issue: an
// enforcing policy must lift min-over-pairs fairness decisively above
// the event-only value AND above the Table 2 F=0 floor (0.11).
func quadInvariant(fair0, fair float64) []string {
	var bad []string
	bad = append(bad, enforcementInvariant(fair0, fair)...)
	if !(fair > 0.11) {
		bad = append(bad, fmt.Sprintf("quad fairness = %.3f, want > 0.11 (the Table 2 F=0 floor)", fair))
	}
	return bad
}

// TestGoldenQuadDetectsMisgrouping is the negative control demanded by
// the issue: a deliberately mis-grouped GroupedFairness must fail the
// 4-thread starvation invariant that the correctly grouped policy
// passes. Invert swaps each thread's group at lookup time, which flips
// BOTH halves of the policy: the hogs inherit the missy floor (tight
// quotas, over-enforcement) and — decisively — the grant boost meant
// for the missy thread. The weight ratio is chosen above the quad
// mix's visit-length asymmetry (hog visits run ~20-30x longer than
// gcc's ~1k-cycle miss distance, so WFQ credit ordering alone shields
// gcc up to roughly that ratio): at 64:1 the inverted weights overcome
// it, the hogs win nearly every grant, and gcc re-starves. If this
// test fails, the quad golden has lost its power to detect a broken
// grouping. CPMSplit is pinned between gcc (CPM ~1k) and the
// friendliest hog (gzip, ~5k) so both arms compare the same
// classification.
func TestGoldenQuadDetectsMisgrouping(t *testing.T) {
	base := core.GroupedFairness{F: 1, CPMSplit: 3000, MissyWeight: 64, FriendlyWeight: 1}
	inv := base
	inv.Invert = true

	fair0, _, _ := runQuad(t, core.EventOnly{})
	fairOK, spOK, resOK := runQuad(t, base)
	fairInv, spInv, resInv := runQuad(t, inv)
	t.Logf("quad grouped: correct fairness = %.3f %.3f (forced %d), inverted = %.3f %.3f (forced %d), event-only %.3f",
		fairOK, spOK, resOK.Switches.Forced(), fairInv, spInv, resInv.Switches.Forced(), fair0)

	// The correctly grouped run passes the starvation invariant...
	if bad := quadInvariant(fair0, fairOK); len(bad) != 0 {
		t.Fatalf("correctly grouped run unexpectedly fails the invariant: %v", bad)
	}
	// ...and the mis-grouped run must fail it decisively.
	if bad := quadInvariant(fair0, fairInv); len(bad) == 0 {
		t.Fatalf("mis-grouped GroupedFairness passed the quad invariant (fairness %.3f vs F=0 %.3f, correct %.3f); negative control inert",
			fairInv, fair0, fairOK)
	}
	if !(fairInv < fairOK/2) {
		t.Errorf("inverted fairness %.3f not decisively below correct %.3f", fairInv, fairOK)
	}
	// Mechanism signatures. Grants: the inverted weights strip the
	// missy thread's grant preference. Absolute visit counts are
	// confounded by the inverted run's much higher total switch volume
	// (over-enforced hogs force-switch constantly), so compare gcc's
	// SHARE of completed dispatches instead.
	okShare := visitShare(resOK, 0)
	invShare := visitShare(resInv, 0)
	if !(invShare < okShare/2) {
		t.Errorf("missy visit share: inverted %.3f vs correct %.3f; mis-grouping must throttle its grants",
			invShare, okShare)
	}
	// Quotas: the hogs inherit the missy floor, so the inverted run
	// over-enforces — floor mis-grouping costs throughput (forced
	// switch churn) on top of the fairness loss.
	if resInv.Switches.Forced() <= resOK.Switches.Forced() {
		t.Errorf("forced switches: inverted %d vs correct %d; inverted floors must over-enforce the hogs",
			resInv.Switches.Forced(), resOK.Switches.Forced())
	}
}
