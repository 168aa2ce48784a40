package core

import (
	"testing"

	"soemt/internal/workload"
)

// Regression tests for mechanism bugs found during bring-up. Each of
// these corresponds to a subtle misreading of the paper that produced
// wrong shapes in the evaluation.

// A thread whose Eq. 9 value saturates at its own IPM needs NO forced
// switches: misses alone produce that average. Enforcing IPM with a
// deficit counter instead fires in every shorter-than-average miss
// gap and taxes naturally fair memory-bound pairs (mcf:mcf lost ~30%
// throughput before the fix).
func TestNoForcedSwitchesForMissBoundPairs(t *testing.T) {
	pipe := newMachine()
	a := victimProfile()
	b := victimProfile()
	b.Seed = 999
	threads := []*Thread{newThread(a, 0), newThread(b, 1)}
	c := mustController(pipe, testConfig(Fairness{F: 0.25}), threads)
	runCycles(c, 400_000)
	sw := c.Switches()
	if sw.Miss == 0 {
		t.Fatal("no miss switches")
	}
	if float64(sw.Quota) > 0.05*float64(sw.Miss) {
		t.Errorf("symmetric missy pair got %d quota switches vs %d miss switches: "+
			"Eq. 9 saturation must disable forced switching", sw.Quota, sw.Miss)
	}
}

// When all co-scheduled threads are miss-bound, a thread can return
// before its own miss resolves; the stall re-triggers a switch but is
// the SAME architectural miss and must not be re-counted (it inflated
// measured miss density ~7x before the fix, poisoning IPC_ST
// estimates).
func TestPingPongMissesNotRecounted(t *testing.T) {
	// Single-thread reference miss density.
	pipeST := newMachine()
	thST := newThread(victimProfile(), 0)
	cST := mustController(pipeST, testConfig(EventOnly{}), []*Thread{thST})
	runCycles(cST, 400_000)
	stIPM := thST.Counters().IPM()

	// Two missy threads ping-ponging.
	pipe := newMachine()
	a := victimProfile()
	b := victimProfile()
	b.Seed = 999
	threads := []*Thread{newThread(a, 0), newThread(b, 1)}
	c := mustController(pipe, testConfig(EventOnly{}), threads)
	runCycles(c, 800_000)
	soeIPM := threads[0].Counters().IPM()

	// Counted miss density under SOE must stay within ~2x of the
	// single-thread density (interference adds some real misses, but
	// nothing like the former 7x re-count inflation).
	if soeIPM < stIPM/2 {
		t.Errorf("SOE IPM %.0f vs ST IPM %.0f: pending misses are being re-counted",
			soeIPM, stIPM)
	}
	// The switches themselves still happen — re-encountered stalls
	// must keep switching even though they are not re-counted.
	var misses uint64
	for _, th := range threads {
		misses += th.Counters().Misses
	}
	if c.Switches().Miss <= misses {
		t.Log("note: miss switches equal counted misses (no ping-pong in this window)")
	}
}

// The visit-length accounting behind the deficit mechanism: with a
// binding quota and a rarely-missing thread, realized instructions per
// visit must track the quota within tolerance.
func TestDeficitMaintainsQuotaAverage(t *testing.T) {
	pipe := newMachine()
	threads := []*Thread{newThread(hogProfile(), 0), newThread(victimProfile(), 1)}
	cfg := testConfig(Fairness{F: 1})
	c := mustController(pipe, cfg, threads)
	runCycles(c, 800_000)
	hog := threads[0]
	// Quotas are resampled every Δ; compare the realized visit length
	// against the mean sampled quota.
	var qSum float64
	var qN int
	for _, s := range c.Samples() {
		if q := s.Threads[0].Quota; q > 0 {
			qSum += q
			qN++
		}
	}
	if qN == 0 {
		t.Skip("hog never had an active quota")
	}
	meanQ := qSum / float64(qN)
	avg := hog.AvgVisitInstrs()
	// The deficit mechanism targets the quota on average over
	// quota-regulated visits. The raw per-visit mean also includes
	// near-zero "ping-pong" visits where the hog returned while its
	// own 300-cycle miss was still outstanding, so allow a wide band;
	// before the deficit fixes the average drifted far beyond it.
	if avg > 2.5*meanQ || avg < meanQ/4 {
		t.Errorf("hog avg instructions/visit %.0f vs mean quota %.0f: deficit accounting broken",
			avg, meanQ)
	}
}

// Fairness targets must produce monotonically increasing achieved
// fairness on an asymmetric pair (this held before the fixes only
// loosely; it is the paper's Figure 8 left panel).
func TestAchievedFairnessMonotoneInTarget(t *testing.T) {
	const cycles = 700_000
	ipcHog := runSingle(t, hogProfile(), 0, cycles)
	ipcVic := runSingle(t, victimProfile(), 1, cycles)
	achieved := func(policy Policy) float64 {
		c := runPair(t, policy, cycles)
		ths := c.Threads()
		sp := []float64{
			float64(ths[0].Counters().Instrs) / float64(c.Now()) / ipcHog,
			float64(ths[1].Counters().Instrs) / float64(c.Now()) / ipcVic,
		}
		return FairnessMetric(sp)
	}
	f0 := achieved(EventOnly{})
	f14 := achieved(Fairness{F: 0.25})
	f12 := achieved(Fairness{F: 0.5})
	f1 := achieved(Fairness{F: 1})
	if !(f0 < f14 && f14 < f12 && f12 < f1) {
		t.Errorf("achieved fairness not monotone: %.3f %.3f %.3f %.3f", f0, f14, f12, f1)
	}
}

// Pause-free profiles must never produce PAUSE micro-ops (guards the
// FracPause mix extension).
func TestBuiltinsHaveNoPause(t *testing.T) {
	for _, name := range workload.Names() {
		if workload.MustByName(name).FracPause != 0 {
			t.Errorf("builtin %q has nonzero FracPause", name)
		}
	}
}
