package main

import (
	"context"
	"fmt"
	"time"

	"soemt/internal/core"
	"soemt/internal/pipeline"
	"soemt/internal/rng"
	"soemt/internal/sim"
	"soemt/internal/workload"
)

// setupReps is how many times each workload sets up per run; setup_s
// is their median.
const setupReps = 3

// pairSpec builds a two-thread spec over built-in profiles a and b.
func pairSpec(policy core.Policy, scale sim.Scale, a, b string) sim.Spec {
	m := sim.DefaultMachine()
	m.Controller.Policy = policy
	return sim.Spec{
		Machine: m,
		Scale:   scale,
		Threads: []sim.ThreadSpec{
			{Profile: workload.MustByName(a), Slot: 0},
			{Profile: workload.MustByName(b), Slot: 1},
		},
	}
}

// busyVariants is how many instruction streams busy-pair cycles
// through. Under F = 1 the run ends when gcc retires its target while
// eon runs far ahead, so one stream's length swings by tens of percent
// with the seed; a median over sixteen streams holds still.
const busyVariants = 16

// busySpecs are gcc:eon under forced fairness: compute-bound, so almost
// every simulated cycle does pipeline work and nothing can be skipped.
func busySpecs(seed uint64) []sim.Spec {
	scale := sim.Scale{CacheWarm: 20_000, Warm: 10_000, Measure: 60_000, MaxCycles: 10_000_000}
	base := pairSpec(core.Fairness{F: 1}, scale, "gcc", "eon")
	out := make([]sim.Spec, busyVariants)
	for k := range out {
		out[k] = perturbSpec(base, rng.Uint64At(seed, uint64(k)))
	}
	return out
}

// stallSpecs is swim:mcf under forced fairness with a dense schedule of
// long injected stalls on both threads (the shape of the perf suite's
// heavy-events scenario): most cycles are certified idle. The measure
// phase ends at the MaxCycles cap under every engine, so every seed
// simulates the same cycle count and one stream suffices.
func stallSpecs(seed uint64) []sim.Spec {
	scale := sim.Scale{CacheWarm: 50_000, Warm: 10_000, Measure: 250_000, MaxCycles: 10_000_000}
	s := pairSpec(core.Fairness{F: 1}, scale, "swim", "mcf")
	var stalls []pipeline.InjectedStall
	for i := uint64(1); i <= 1600; i++ {
		stalls = append(stalls, pipeline.InjectedStall{AtInstr: 500 * i, StallCycles: 150_000})
	}
	s.Threads[0].Events = stalls
	s.Threads[1].Events = stalls
	return []sim.Spec{perturbSpec(s, seed)}
}

// simPairRun is the end-to-end run of busy-pair and stall-pair: one
// caller issuing sequential full-protocol sim.RunContext calls, round
// robin over specs.
func simPairRun(cfg runConfig, specs []sim.Spec) (*report, error) {
	ctx := context.Background()
	keys := make([]string, len(specs))
	for i, s := range specs {
		k, err := specKey(s)
		if err != nil {
			return nil, err
		}
		keys[i] = k
	}
	chk, err := newChecker()
	if err != nil {
		return nil, err
	}
	rep := newReport()

	var setups []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if _, err := sim.RunContext(ctx, specs[i%len(specs)]); err != nil { // the untimed warm-up operation
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	var walls []float64
	var instrs uint64
	deadline := time.Now().Add(cfg.duration())
	for i := 0; time.Now().Before(deadline); i++ {
		spec := specs[i%len(specs)]
		start := time.Now()
		res, err := sim.RunContext(ctx, spec)
		wall := time.Since(start)
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.linef("  run error: %v", err)
			continue
		}
		walls = append(walls, wall.Seconds())
		instrs += measuredInstrs(res)
		d, err := resultDigest(res)
		if err != nil {
			return nil, err
		}
		chk.observe(keys[i%len(specs)], d, func() (string, error) { return reference(spec) })
	}
	if err := finishCheck(cfg, rep, chk); err != nil {
		return nil, err
	}
	if len(walls) == 0 {
		return nil, fmt.Errorf("no run completed")
	}
	mips := float64(instrs) / sum(walls) / 1e6
	mean := sum(walls) / float64(len(walls))
	rep.sample("run_s", "s", median(walls), len(walls))
	rep.sample("run_mean_s", "s", mean, len(walls))
	rep.sample("run_p90_s", "s", quantile(walls, 0.9), len(walls))
	rep.sample("run_p99_s", "s", quantile(walls, 0.99), len(walls))
	rep.sample("sim_mips", "Minstr/s", mips, len(walls))
	// The gated latency is the mean, not the median: the build host
	// alternated every few seconds between two speeds about 1.45x
	// apart, and with half a run in each the median fell on either
	// level, while the mean moves with the share of time in each.
	rep.set("latency_ms", "ms", 1000*mean)
	rep.set("ops_per_s", "1/s", float64(len(walls))/sum(walls))
	rep.set("sim_mips", "Minstr/s", mips)
	rep.set("setup_s", "s", median(setups))
	rep.sample("setup_s", "s", median(setups), len(setups))
	return rep, nil
}

// finishCheck resolves the reference digests after the timed part and
// folds mismatches into the failure count. In pin mode it records the
// references as the pinned set instead. Nothing is timed here, so the
// references may use both CPUs; the peak memory is read before them.
func finishCheck(cfg runConfig, rep *report, chk *checker) error {
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	rep.peakRSS = rss
	setProcs(2)
	bad, want, computed, err := chk.mismatches()
	setProcs(1)
	if err != nil {
		return err
	}
	rep.failed += bad
	rep.linef("  digests: %d keys, %d computed with the %s engine, %d mismatches", len(want), computed, refEngine, bad)
	if cfg.pin != nil {
		for k, v := range want {
			cfg.pin[k] = v
		}
	}
	return nil
}
