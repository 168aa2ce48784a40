package core

import (
	"testing"

	"soemt/internal/branch"
	"soemt/internal/mem"
	"soemt/internal/pipeline"
	"soemt/internal/stats"
	"soemt/internal/workload"
)

// Profiles engineered for fast, decisive tests: "hog" almost never
// misses; "victim" misses constantly. Under F=0 SOE the victim should
// starve; with fairness enforcement it must recover.
func hogProfile() workload.Profile {
	return workload.Profile{
		Name: "hog", Seed: 11,
		FracLoad: 0.25, FracBranch: 0.1,
		ChainFrac: 0.1, DepWindow: 16,
		HotBytes: 16 << 10, WarmBytes: 64 << 10, ColdBytes: 64 << 20,
		PWarm: 0, PCold: 0.00002, StrideFrac: 0,
		LoopLen: 256, TakenBias: 0.9, NoiseFrac: 0,
	}
}

func victimProfile() workload.Profile {
	return workload.Profile{
		Name: "victim", Seed: 12,
		FracLoad: 0.3, FracBranch: 0.1,
		ChainFrac: 0.2, DepWindow: 8,
		HotBytes: 16 << 10, WarmBytes: 64 << 10, ColdBytes: 256 << 20,
		PWarm: 0, PCold: 0.01, StrideFrac: 0,
		LoopLen: 256, TakenBias: 0.9, NoiseFrac: 0,
	}
}

func newMachine() *pipeline.Pipeline {
	hier, err := mem.NewHierarchyIn(nil, mem.DefaultConfig())
	if err != nil {
		panic(err)
	}
	pcfg := pipeline.DefaultConfig()
	bu := branch.NewUnit(pcfg.BranchEntries, pcfg.BTBEntries, pcfg.RASDepth, pcfg.HistoryBits)
	pipe, err := pipeline.NewIn(nil, pcfg, hier, bu)
	if err != nil {
		panic(err)
	}
	return pipe
}

// mustController wraps NewController for configurations the tests know
// to be valid.
func mustController(pipe *pipeline.Pipeline, cfg Config, threads []*Thread) *Controller {
	c, err := NewController(pipe, cfg, threads)
	if err != nil {
		panic(err)
	}
	return c
}

// runCycles advances c by exactly n cycles.
func runCycles(c *Controller, n uint64) { c.Advance(^uint64(0), 0, c.Now(), n) }

// run advances c, as sim.RunContext does, until every thread has
// retired target instructions or maxCycles have elapsed (0 = no
// limit), and returns the cycles it ran.
func run(c *Controller, target, maxCycles uint64) uint64 {
	start := c.Now()
	for !c.Advance(target, maxCycles, start, 1<<20) {
	}
	return c.Now() - start
}

func newThread(prof workload.Profile, slot int) *Thread {
	g := workload.NewOffset(prof, slot)
	return &Thread{Name: prof.Name, Stream: workload.NewStream(g, 0)}
}

// testConfig shrinks Δ and the max quota so short runs sample often.
func testConfig(policy Policy) Config {
	cfg := DefaultConfig()
	cfg.Delta = 20_000
	cfg.MaxCyclesQuota = 5_000
	cfg.Policy = policy
	return cfg
}

// runPair runs hog+victim under the given policy for a fixed cycle
// count and returns the controller.
func runPair(t *testing.T, policy Policy, cycles uint64) *Controller {
	t.Helper()
	pipe := newMachine()
	threads := []*Thread{newThread(hogProfile(), 0), newThread(victimProfile(), 1)}
	c := mustController(pipe, testConfig(policy), threads)
	runCycles(c, cycles)
	return c
}

// runSingle runs one profile alone and returns its IPC.
func runSingle(t *testing.T, prof workload.Profile, slot int, cycles uint64) float64 {
	t.Helper()
	pipe := newMachine()
	th := newThread(prof, slot)
	c := mustController(pipe, testConfig(EventOnly{}), []*Thread{th})
	runCycles(c, cycles)
	cnt := th.Counters()
	return float64(cnt.Instrs) / float64(cnt.Cycles)
}

func TestSingleThreadNeverSwitches(t *testing.T) {
	pipe := newMachine()
	th := newThread(victimProfile(), 0)
	c := mustController(pipe, testConfig(EventOnly{}), []*Thread{th})
	runCycles(c, 100_000)
	if c.Switches().Total() != 0 {
		t.Fatalf("single-thread run switched: %+v", c.Switches())
	}
	if th.Counters().Misses == 0 {
		t.Fatal("victim profile produced no counted misses")
	}
	if th.Counters().Instrs == 0 {
		t.Fatal("no instructions retired")
	}
}

func TestSOESwitchesOnMisses(t *testing.T) {
	c := runPair(t, EventOnly{}, 200_000)
	if c.Switches().Miss == 0 {
		t.Fatal("no miss-induced switches in SOE")
	}
	if c.Switches().Quota != 0 {
		t.Fatal("event-only policy must not force quota switches")
	}
	both := c.Threads()
	if both[0].retired == 0 || both[1].retired == 0 {
		t.Fatalf("a thread never ran: %d / %d", both[0].retired, both[1].retired)
	}
}

func TestSOEImprovesThroughputOverSingleThread(t *testing.T) {
	const cycles = 400_000
	ipcHogST := runSingle(t, hogProfile(), 0, cycles)
	ipcVicST := runSingle(t, victimProfile(), 1, cycles)

	c := runPair(t, EventOnly{}, cycles)
	var ipcSOE float64
	for _, th := range c.Threads() {
		ipcSOE += float64(th.Counters().Instrs) / float64(cycles)
	}
	// SOE throughput must beat the victim alone and at least approach
	// the better single thread (the hog hides the victim's misses).
	if ipcSOE <= ipcVicST {
		t.Errorf("SOE IPC %.3f not above victim-alone %.3f", ipcSOE, ipcVicST)
	}
	if ipcSOE < ipcHogST*0.8 {
		t.Errorf("SOE IPC %.3f unexpectedly below 80%% of hog-alone %.3f", ipcSOE, ipcHogST)
	}
}

func TestUnfairnessWithoutEnforcement(t *testing.T) {
	const cycles = 400_000
	ipcHogST := runSingle(t, hogProfile(), 0, cycles)
	ipcVicST := runSingle(t, victimProfile(), 1, cycles)
	c := runPair(t, EventOnly{}, cycles)
	ths := c.Threads()
	spHog := float64(ths[0].Counters().Instrs) / float64(cycles) / ipcHogST
	spVic := float64(ths[1].Counters().Instrs) / float64(cycles) / ipcVicST
	f := FairnessMetric([]float64{spHog, spVic})
	if f > 0.5 {
		t.Errorf("expected strong unfairness at F=0, got fairness %.3f (hog %.3f vic %.3f)",
			f, spHog, spVic)
	}
	if spHog < spVic {
		t.Errorf("hog should outrun victim: %.3f vs %.3f", spHog, spVic)
	}
}

func TestFairnessEnforcementRescuesVictim(t *testing.T) {
	const cycles = 600_000
	ipcHogST := runSingle(t, hogProfile(), 0, cycles)
	ipcVicST := runSingle(t, victimProfile(), 1, cycles)

	fairness := func(c *Controller) float64 {
		ths := c.Threads()
		spHog := float64(ths[0].Counters().Instrs) / float64(c.Now()) / ipcHogST
		spVic := float64(ths[1].Counters().Instrs) / float64(c.Now()) / ipcVicST
		return FairnessMetric([]float64{spHog, spVic})
	}

	c0 := runPair(t, EventOnly{}, cycles)
	f0 := fairness(c0)
	c1 := runPair(t, Fairness{F: 1}, cycles)
	f1 := fairness(c1)

	if c1.Switches().Quota == 0 {
		t.Fatal("fairness policy induced no forced switches")
	}
	if f1 <= f0 {
		t.Fatalf("enforcement did not improve fairness: F=0 gives %.3f, F=1 gives %.3f", f0, f1)
	}
	if f1 < 0.5 {
		t.Errorf("achieved fairness %.3f at F=1, expected > 0.5", f1)
	}
}

func TestFairnessLevelsMonotone(t *testing.T) {
	// Stricter F must not decrease victim share.
	const cycles = 500_000
	share := func(policy Policy) float64 {
		c := runPair(t, policy, cycles)
		ths := c.Threads()
		return float64(ths[1].Counters().Instrs) /
			float64(ths[0].Counters().Instrs+ths[1].Counters().Instrs)
	}
	s0 := share(EventOnly{})
	sq := share(Fairness{F: 0.25})
	s1 := share(Fairness{F: 1})
	if !(s0 < sq && sq < s1) {
		t.Errorf("victim share not monotone in F: F0=%.4f F1/4=%.4f F1=%.4f", s0, sq, s1)
	}
}

func TestMaxCyclesQuotaGuaranteesRotation(t *testing.T) {
	// Two hogs: almost no misses, event-only policy. Only the
	// max-cycles quota can rotate them.
	pipe := newMachine()
	threads := []*Thread{newThread(hogProfile(), 0), newThread(hogProfile(), 1)}
	cfg := testConfig(EventOnly{})
	c := mustController(pipe, cfg, threads)
	runCycles(c, 100_000)
	if c.Switches().MaxQuota == 0 {
		t.Fatal("max-cycles quota never fired for two no-miss threads")
	}
	if threads[0].retired == 0 || threads[1].retired == 0 {
		t.Fatal("a hog never ran despite the max-cycles quota")
	}
}

func TestSamplesRecorded(t *testing.T) {
	c := runPair(t, Fairness{F: 0.5}, 100_000)
	if len(c.Samples()) != 4 { // Δ=20k over 100k cycles, first at 20k
		t.Fatalf("samples = %d, want 4", len(c.Samples()))
	}
	for _, s := range c.Samples() {
		if len(s.Threads) != 2 {
			t.Fatal("sample missing threads")
		}
		for _, ts := range s.Threads {
			if ts.EstIPCST < 0 || ts.WindowIPC < 0 {
				t.Fatal("negative sample values")
			}
		}
	}
}

func TestResetStatsClearsMeasurementKeepsState(t *testing.T) {
	c := runPair(t, Fairness{F: 1}, 100_000)
	c.ResetStats()
	if c.Switches().Total() != 0 || len(c.Samples()) != 0 {
		t.Fatal("reset left switch stats or samples")
	}
	for _, th := range c.Threads() {
		if th.retired != 0 || th.Counters() != (stats.Counters{}) {
			t.Fatal("reset left thread counters")
		}
	}
	// Reset recomputes quotas from the warmup window so measurement
	// starts with fresh IPSw values: the hog must still carry one.
	if c.Threads()[0].quota <= 0 {
		t.Fatal("reset must leave the mechanism armed (hog quota > 0)")
	}
	if c.now != c.resetAt {
		t.Fatal("CyclesSinceReset not zeroed")
	}
	// The machine continues to run correctly after a reset.
	runCycles(c, 50_000)
	if c.Threads()[0].retired+c.Threads()[1].retired == 0 {
		t.Fatal("no progress after reset")
	}
}

func TestRunTargetStopsWhenBothComplete(t *testing.T) {
	pipe := newMachine()
	threads := []*Thread{newThread(hogProfile(), 0), newThread(victimProfile(), 1)}
	c := mustController(pipe, testConfig(Fairness{F: 1}), threads)
	cycles := run(c, 5_000, 0)
	if cycles == 0 {
		t.Fatal("run did nothing")
	}
	for i, th := range threads {
		if th.retired < 5_000 {
			t.Fatalf("thread %d retired only %d", i, th.retired)
		}
	}
	// With a max-cycle cap, the run must stop early.
	pipe2 := newMachine()
	threads2 := []*Thread{newThread(hogProfile(), 0), newThread(victimProfile(), 1)}
	c2 := mustController(pipe2, testConfig(EventOnly{}), threads2)
	got := run(c2, 1<<40, 10_000)
	if got != 10_000 {
		t.Fatalf("maxCycles cap returned %d", got)
	}
}

func TestTimeSharePolicyForcesSwitches(t *testing.T) {
	c := runPair(t, TimeShare{QuotaCycles: 400}, 300_000)
	if c.Switches().Quota == 0 {
		t.Fatal("time-share policy never forced a switch")
	}
	// Both threads get CPU time.
	if c.Threads()[1].Counters().Cycles == 0 {
		t.Fatal("victim got no cycles under time sharing")
	}
}

func TestNaiveDeficitSwitchesAtLeastAsOften(t *testing.T) {
	const cycles = 400_000
	run := func(naive bool) uint64 {
		pipe := newMachine()
		threads := []*Thread{newThread(hogProfile(), 0), newThread(victimProfile(), 1)}
		cfg := testConfig(Fairness{F: 1})
		cfg.NaiveDeficit = naive
		c := mustController(pipe, cfg, threads)
		runCycles(c, cycles)
		return c.Switches().Quota
	}
	deficit := run(false)
	naive := run(true)
	if deficit == 0 || naive == 0 {
		t.Fatal("no forced switches in ablation comparison")
	}
	// The two accounting schemes must actually behave differently;
	// their relative order depends on overshoot vs carried leftover
	// (see BenchmarkAblationDeficit for the quantitative comparison).
	if naive == deficit {
		t.Errorf("naive and deficit produced identical switch counts (%d): flag has no effect", naive)
	}
}

func TestMeasuredMissLatApproximatesMemoryLatency(t *testing.T) {
	pipe := newMachine()
	th := newThread(victimProfile(), 0)
	cfg := testConfig(EventOnly{})
	cfg.MeasureMissLat = true
	c := mustController(pipe, cfg, []*Thread{th})
	runCycles(c, 300_000)
	got := c.MeasuredMissLat()
	// Head-observed residual latency: detection happens after the
	// access started (shortening it) but bus queueing of clustered
	// misses can push individual stalls past the raw 300 cycles.
	if got < 100 || got > 600 {
		t.Errorf("measured miss latency = %.1f, want O(300)", got)
	}
	// Measurement off -> constant.
	cfg.MeasureMissLat = false
	c2 := mustController(newMachine(), cfg, []*Thread{newThread(victimProfile(), 0)})
	if c2.MeasuredMissLat() != cfg.MissLat {
		t.Error("constant miss latency not returned when measurement off")
	}
}

func TestCountersExcludeSwitchOverhead(t *testing.T) {
	c := runPair(t, EventOnly{}, 300_000)
	var running uint64
	for _, th := range c.Threads() {
		running += th.Counters().Cycles
	}
	// Total attributed running cycles must be strictly less than wall
	// cycles (switch overhead excluded) but a dominant fraction.
	if running >= c.Now() {
		t.Fatalf("running cycles %d >= wall %d: overhead not excluded", running, c.Now())
	}
	if float64(running) < 0.5*float64(c.Now()) {
		t.Errorf("running cycles %d below half of wall %d: attribution broken", running, c.Now())
	}
}

func TestControllerErrorsOnBadConstruction(t *testing.T) {
	pipe := newMachine()
	badDrain := testConfig(EventOnly{})
	badDrain.DrainCycles = 0
	badAlpha := testConfig(EventOnly{})
	badAlpha.SmoothAlpha = 1.5
	badMissLat := testConfig(EventOnly{})
	badMissLat.MissLat = -1
	for i, build := range []func() (*Controller, error){
		func() (*Controller, error) { return NewController(pipe, testConfig(EventOnly{}), nil) },
		func() (*Controller, error) {
			return NewController(nil, testConfig(EventOnly{}), []*Thread{newThread(hogProfile(), 0)})
		},
		func() (*Controller, error) {
			return NewController(pipe, testConfig(nil), []*Thread{newThread(hogProfile(), 0)})
		},
		func() (*Controller, error) {
			return NewController(pipe, badDrain, []*Thread{newThread(hogProfile(), 0)})
		},
		func() (*Controller, error) {
			return NewController(pipe, badAlpha, []*Thread{newThread(hogProfile(), 0)})
		},
		func() (*Controller, error) {
			return NewController(pipe, badMissLat, []*Thread{newThread(hogProfile(), 0)})
		},
		func() (*Controller, error) {
			return NewController(pipe, testConfig(EventOnly{}), []*Thread{{Name: "nostream"}})
		},
	} {
		c, err := build()
		if err == nil || c != nil {
			t.Errorf("case %d: expected construction error, got (%v, %v)", i, c, err)
		}
	}
}

func TestDeterministicController(t *testing.T) {
	c1 := runPair(t, Fairness{F: 0.5}, 200_000)
	c2 := runPair(t, Fairness{F: 0.5}, 200_000)
	if c1.Switches() != c2.Switches() {
		t.Fatalf("switch stats diverged: %+v vs %+v", c1.Switches(), c2.Switches())
	}
	for i := range c1.Threads() {
		if c1.Threads()[i].Counters() != c2.Threads()[i].Counters() {
			t.Fatalf("thread %d counters diverged", i)
		}
	}
}

func TestEstimatedIPCSTTracksReality(t *testing.T) {
	// §5.1.1: the counter-based estimate must track the real
	// single-thread IPC (it is usually slightly lower).
	const cycles = 600_000
	realVic := runSingle(t, victimProfile(), 1, cycles)
	c := runPair(t, Fairness{F: 0.25}, cycles)
	samples := c.Samples()
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	var est float64
	var n int
	for _, s := range samples[len(samples)/2:] { // skip mechanism warmup
		if s.Threads[1].Window.Cycles > 0 {
			est += s.Threads[1].EstIPCST
			n++
		}
	}
	est /= float64(n)
	if est < realVic*0.5 || est > realVic*1.5 {
		t.Errorf("estimated IPC_ST %.3f vs real %.3f: tracking broken", est, realVic)
	}
}

// Regression: the flush sample emitted for a partial Δ window must
// divide retired instructions by the cycles actually elapsed since the
// previous sample, not by the full Δ (which underestimates WindowIPC).
func TestSamplePartialWindowIPC(t *testing.T) {
	pipe := newMachine()
	threads := []*Thread{newThread(hogProfile(), 0), newThread(victimProfile(), 1)}
	cfg := testConfig(EventOnly{})
	c := mustController(pipe, cfg, threads)

	// One full window plus half of the next.
	runCycles(c, cfg.Delta+cfg.Delta/2)
	full := c.Samples()
	if len(full) != 1 {
		t.Fatalf("expected 1 boundary sample, got %d", len(full))
	}
	for i, st := range full[0].Threads {
		want := float64(st.Window.Instrs) / float64(cfg.Delta)
		if st.WindowIPC != want {
			t.Errorf("full-window thread %d WindowIPC = %v, want %v", i, st.WindowIPC, want)
		}
	}

	// Flush the partial half-window.
	c.sample()
	recs := c.Samples()
	if len(recs) != 2 {
		t.Fatalf("expected 2 samples, got %d", len(recs))
	}
	partial := recs[1]
	elapsed := cfg.Delta / 2
	var checked bool
	for i, st := range partial.Threads {
		want := float64(st.Window.Instrs) / float64(elapsed)
		if st.WindowIPC != want {
			t.Errorf("partial-window thread %d WindowIPC = %v, want %v (instrs=%d elapsed=%d)",
				i, st.WindowIPC, want, st.Window.Instrs, elapsed)
		}
		if st.Window.Instrs > 0 {
			checked = true
			// The old code divided by the full Δ, halving the value.
			wrong := float64(st.Window.Instrs) / float64(cfg.Delta)
			if st.WindowIPC <= wrong {
				t.Errorf("partial-window thread %d WindowIPC %v not above full-Δ value %v", i, st.WindowIPC, wrong)
			}
		}
	}
	if !checked {
		t.Fatal("no thread retired instructions in the partial window")
	}
}

// Regression: Advance must flag when it stops at the maxCycles cap
// before every thread reaches its target, and ResetStats must clear
// the flag.
func TestRunTruncatedFlag(t *testing.T) {
	pipe := newMachine()
	threads := []*Thread{newThread(hogProfile(), 0), newThread(victimProfile(), 1)}
	c := mustController(pipe, testConfig(EventOnly{}), threads)
	if run(c, 1<<40, 10_000) != 10_000 {
		t.Fatal("cap did not bind")
	}
	if !c.Truncated() {
		t.Fatal("capped run must report truncation")
	}
	c.ResetStats()
	if c.Truncated() {
		t.Fatal("ResetStats must clear the truncation flag")
	}
	if run(c, 1_000, 0) == 0 {
		t.Fatal("run did nothing")
	}
	if c.Truncated() {
		t.Fatal("completed run must not report truncation")
	}
}
