package core

import (
	"testing"

	"soemt/internal/workload"
)

// pauseProfile emits PAUSE hints (§6 extension: explicit instructions
// that can trigger thread switches, like x86 pause in busy-wait loops).
func pauseProfile() workload.Profile {
	p := hogProfile()
	p.Name = "pausey"
	p.Seed = 77
	p.FracPause = 0.02
	return p
}

func TestSwitchOnPauseExtension(t *testing.T) {
	run := func(enabled bool) *Controller {
		pipe := newMachine()
		threads := []*Thread{newThread(pauseProfile(), 0), newThread(hogProfile(), 1)}
		cfg := testConfig(EventOnly{})
		cfg.SwitchOnPause = enabled
		c := mustController(pipe, cfg, threads)
		runCycles(c, 100_000)
		return c
	}
	off := run(false)
	if off.Switches().Pause != 0 {
		t.Fatal("pause switches counted with the extension disabled")
	}
	on := run(true)
	if on.Switches().Pause == 0 {
		t.Fatal("no pause switches with the extension enabled")
	}
	// Pause-hint switching lets the other thread run far more often
	// than the max-cycles quota alone would.
	if on.Switches().Pause < 10 {
		t.Errorf("only %d pause switches; hints not effective", on.Switches().Pause)
	}
}

// The controller must handle more than two threads: Eickemeyer et al.
// observed SOE reaching maximum throughput around three threads; at
// minimum, all threads must make progress and fairness must remain
// enforceable.
func TestThreeThreadSOE(t *testing.T) {
	pipe := newMachine()
	threads := []*Thread{
		newThread(victimProfile(), 0),
		newThread(hogProfile(), 1),
		newThread(victimProfile2(), 2),
	}
	c := mustController(pipe, testConfig(Fairness{F: 0.5}), threads)
	runCycles(c, 600_000)
	for i, th := range threads {
		if th.retired == 0 {
			t.Fatalf("thread %d never ran", i)
		}
	}
	if c.Switches().Total() == 0 {
		t.Fatal("no switches in 3-thread SOE")
	}
	// Rotation is round-robin over all three: visit counts must be
	// within one of each other.
	v0, v1, v2 := threads[0].Visits(), threads[1].Visits(), threads[2].Visits()
	max, min := v0, v0
	for _, v := range []uint64{v1, v2} {
		if v > max {
			max = v
		}
		if v < min {
			min = v
		}
	}
	if max-min > 1 {
		t.Errorf("visit counts unbalanced: %d %d %d", v0, v1, v2)
	}
}

func victimProfile2() workload.Profile {
	p := victimProfile()
	p.Name = "victim2"
	p.Seed = 13
	return p
}

// Throughput should not collapse as threads are added: with one
// memory-bound profile replicated, SOE hides more and more of the
// miss latency (the paper's core premise).
func TestThroughputScalesWithThreads(t *testing.T) {
	const cycles = 500_000
	ipcFor := func(n int) float64 {
		pipe := newMachine()
		var threads []*Thread
		for i := 0; i < n; i++ {
			p := victimProfile()
			p.Seed += uint64(i) // distinct streams
			threads = append(threads, newThread(p, i))
		}
		c := mustController(pipe, testConfig(EventOnly{}), threads)
		runCycles(c, cycles)
		var instrs uint64
		for _, th := range threads {
			instrs += th.Counters().Instrs
		}
		return float64(instrs) / float64(cycles)
	}
	one := ipcFor(1)
	two := ipcFor(2)
	three := ipcFor(3)
	if two <= one {
		t.Errorf("2-thread SOE (%.3f) must beat single thread (%.3f) for a memory-bound workload", two, one)
	}
	if three < two*0.95 {
		t.Errorf("3-thread SOE (%.3f) collapsed vs 2-thread (%.3f)", three, two)
	}
}

// §6 extension: L1 misses (hitting L2) as additional switch events. On
// this machine the ~25-cycle switch cost exceeds the ~15-cycle L2 hit
// latency, so enabling it increases switching sharply; the test checks
// the mechanism works and the switch accounting is correct.
func TestSwitchOnL1MissExtension(t *testing.T) {
	warmHeavy := func(seed uint64) workload.Profile {
		p := hogProfile()
		p.Name = "warmy"
		p.Seed = seed
		p.PWarm = 0.5 // half the accesses L1-miss into the L2
		p.WarmBytes = 512 << 10
		return p
	}
	run := func(enabled bool) *Controller {
		pipe := newMachine()
		threads := []*Thread{newThread(warmHeavy(21), 0), newThread(warmHeavy(22), 1)}
		cfg := testConfig(EventOnly{})
		cfg.SwitchOnL1Miss = enabled
		c := mustController(pipe, cfg, threads)
		runCycles(c, 200_000)
		return c
	}
	off := run(false)
	if off.Switches().L1Miss != 0 {
		t.Fatal("L1 switches counted with the extension disabled")
	}
	on := run(true)
	if on.Switches().L1Miss == 0 {
		t.Fatal("no L1-miss switches with the extension enabled")
	}
	// Each L1 switch costs more than the latency it hides here, so
	// throughput must not improve.
	offIPC := float64(off.Threads()[0].retired+off.Threads()[1].retired) / float64(off.Now())
	onIPC := float64(on.Threads()[0].retired+on.Threads()[1].retired) / float64(on.Now())
	if onIPC > offIPC*1.02 {
		t.Errorf("L1 switching unexpectedly improved IPC: %.3f vs %.3f", onIPC, offIPC)
	}
}
