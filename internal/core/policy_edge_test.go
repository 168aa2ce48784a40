package core

import (
	"fmt"
	"math"
	"testing"

	"soemt/internal/stats"
)

// Edge-case tests for the quota/deficit mechanism: behaviours at the
// boundaries of the paper's formulas (Δ sampling edges, F -> 0) and
// the fast-forward engine under the TimeShare baseline.

// TestDeficitCarriesAcrossDeltaBoundary pins the §3.2 deficit-counter
// semantics at a sampling edge: the Δ sample recomputes the quota but
// must NOT clobber the running thread's deficit — the deficit only
// decays with retirement and is only recharged at switch-in. A
// regression that reset deficits on every sample would let a hog run a
// fresh full quota after each Δ regardless of how much credit it had
// already burned.
func TestDeficitCarriesAcrossDeltaBoundary(t *testing.T) {
	pipe := newMachine()
	threads := []*Thread{newThread(hogProfile(), 0), newThread(victimProfile(), 1)}
	c := mustController(pipe, testConfig(Fairness{F: 1}), threads)

	checked := 0
	for boundary := uint64(1); boundary <= 30 && checked < 3; boundary++ {
		for c.now < boundary*c.cfg.Delta {
			c.Step()
		}
		cur := c.threads[c.cur]
		if cur.quota <= 0 || cur.deficit <= 0 {
			continue // no binding quota at this edge; try the next one
		}
		before := cur.deficit
		retiredBefore := cur.retired
		curIdx := c.cur
		c.Step() // this Step runs sample() before executing the cycle
		if len(c.Samples()) != int(boundary) {
			t.Fatalf("expected sample %d to fire at cycle %d", boundary, c.now-1)
		}
		if c.cur != curIdx {
			continue // boundary cycle also switched; deficit was recharged
		}
		wantDeficit := before - float64(cur.retired-retiredBefore)
		if math.Abs(cur.deficit-wantDeficit) > 1e-9 {
			t.Fatalf("Δ boundary %d: deficit %.4f, want %.4f (carry %.4f minus %d retired); sampling must not reset deficits",
				boundary, cur.deficit, wantDeficit, before, cur.retired-retiredBefore)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("never observed a binding quota at a Δ boundary; test lost its subject")
	}
}

// TestQuotasAtZeroAndTinyF pins the F -> 0 limit of Eq. 9 for both
// policies: at F=0 enforcement is off, so every quota must be exactly
// zero (zero disables forced switches — the "unbounded IPSw" of the
// paper) and nothing may divide by zero; at tiny positive F the raw
// Eq. 9 value explodes past IPM, which saturates the quota to
// "disabled" rather than overflowing to Inf/NaN.
func TestQuotasAtZeroAndTinyF(t *testing.T) {
	if q := IPSwQuota(15000, 2.381, 400, 300, 0); q != 0 {
		t.Errorf("IPSwQuota at F=0 = %v, want 0 (disabled)", q)
	}
	if q := IPSwQuota(15000, 2.381, 400, 300, 1e-300); math.IsInf(q, 0) || math.IsNaN(q) || q > 15000 {
		t.Errorf("IPSwQuota at tiny F = %v, want saturated at IPM", q)
	}

	samples := []ThreadSample{
		{Window: stats.Counters{Instrs: 50_000, Cycles: 100_000, Misses: 10}, IPM: 5000, CPM: 10_000, EstST: 0.485},
		{Window: stats.Counters{Instrs: 20_000, Cycles: 100_000, Misses: 200}, IPM: 100, CPM: 500, EstST: 0.125},
	}
	for _, f := range []float64{0, -1} {
		for i, q := range (Fairness{F: f}).Quotas(samples, 300) {
			if q != 0 {
				t.Errorf("Fairness{F=%v} quota[%d] = %v, want 0", f, i, q)
			}
		}
	}
	for _, f := range []float64{1e-12, 1e-300} {
		for i, q := range (Fairness{F: f}).Quotas(samples, 300) {
			if math.IsInf(q, 0) || math.IsNaN(q) {
				t.Errorf("Fairness{F=%v} quota[%d] = %v; must stay finite", f, i, q)
			}
			// Eq. 9 saturates at IPM, and the implementation encodes
			// "saturated" as 0 = no forced switches.
			if q != 0 {
				t.Errorf("Fairness{F=%v} quota[%d] = %v, want 0 (saturated at IPM)", f, i, q)
			}
		}
	}

	// TimeShare's degenerate configurations must be equally safe: a
	// non-positive cycle quota disables enforcement, and an empty
	// window (IPC 0) falls back to a finite conversion rate.
	for i, q := range (TimeShare{QuotaCycles: 0}).Quotas(samples, 300) {
		if q != 0 {
			t.Errorf("TimeShare{0} quota[%d] = %v, want 0", i, q)
		}
	}
	empty := []ThreadSample{{}, {}}
	for i, q := range (TimeShare{QuotaCycles: 400}).Quotas(empty, 300) {
		if math.IsInf(q, 0) || math.IsNaN(q) || q <= 0 {
			t.Errorf("TimeShare on empty window quota[%d] = %v, want finite positive", i, q)
		}
	}
}

// TestFairnessZeroFNeverForcesSwitches runs the full controller with
// Fairness{F: 0} (as distinct from EventOnly) and asserts the
// mechanism stays inert: no quota-induced switches, every deficit and
// quota finite, behaviour indistinguishable from event-only SOE.
func TestFairnessZeroFNeverForcesSwitches(t *testing.T) {
	c := runPair(t, Fairness{F: 0}, 300_000)
	if sw := c.Switches(); sw.Quota != 0 {
		t.Errorf("F=0 produced %d quota switches, want 0", sw.Quota)
	}
	if len(c.Samples()) == 0 {
		t.Fatal("no Δ samples recorded")
	}
	for i, th := range c.Threads() {
		if th.quota != 0 {
			t.Errorf("thread %d quota = %v at F=0, want 0", i, th.quota)
		}
		if math.IsInf(th.deficit, 0) || math.IsNaN(th.deficit) {
			t.Errorf("thread %d deficit = %v, must stay finite", i, th.deficit)
		}
	}

	ref := runPair(t, EventOnly{}, 300_000)
	if got, want := c.Switches(), ref.Switches(); got != want {
		t.Errorf("Fairness{F:0} switch stats %+v differ from EventOnly %+v", got, want)
	}
}

// TestFastForwardLockstepTimeShare is the TimeShare variant of
// TestFastForwardLockstep: the §6 baseline converts a cycle quota into
// an instruction quota each Δ, exercising deficit edges the Fairness
// policy never produces (quotas bind on BOTH threads, including the
// missy one), so the skip-clipping logic is compared state-for-state
// against the reference engine here too.
func TestFastForwardLockstepTimeShare(t *testing.T) {
	for _, slice := range []uint64{64, 1021} {
		slice := slice
		t.Run(fmt.Sprintf("slice-%d", slice), func(t *testing.T) {
			t.Parallel()
			mk := func() *Controller {
				pipe := newMachine()
				threads := []*Thread{newThread(hogProfile(), 0), newThread(victimProfile(), 1)}
				return mustController(pipe, testConfig(TimeShare{QuotaCycles: 5_000}), threads)
			}
			ff := mk()
			ff.SetEngine(EngineFastForward)
			ref := mk()
			const total = 400_000
			for ff.now < total {
				ff.Advance(1<<62, 0, 0, slice)
				ref.Advance(1<<62, 0, 0, slice)
				sa, sb := observableState(ff), observableState(ref)
				if sa != sb {
					t.Fatalf("diverged near cycle %d\nfast-forward: %s\nreference:    %s", ff.now, sa, sb)
				}
			}
		})
	}
}
