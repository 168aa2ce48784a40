package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"soemt/internal/experiments"
	"soemt/internal/rng"
	"soemt/internal/sim"
)

// sweepWorkers is the runner pool size: two simulations at once.
const sweepWorkers = 2

// tinyScale is the smallest scale users run: soeserve's "tiny".
var tinyScale = sim.Scale{CacheWarm: 50_000, Warm: 50_000, Measure: 250_000, MaxCycles: 50_000_000}

// sweepOptions is the paper's Fig 6-8 matrix (16 pairs x 4 F levels
// plus the single-thread references) at a scale no user runs: windows
// of 1/5 (cache-warm), 1/10 (warm) and 1/25 (measure) of tinyScale's,
// chosen so that several cold matrices fit in one timed run. Phase
// shares differ between the two scales, so the traced run prints
// cache-warm's share at both and reports the tiny one.
func sweepOptions() experiments.Options {
	return experiments.Options{
		Machine:    sim.DefaultMachine(),
		Scale:      sim.Scale{CacheWarm: 10_000, Warm: 5_000, Measure: 10_000, MaxCycles: 2_000_000},
		SameOffset: 100_000,
	}
}

// sweepRun is one timed cold matrix: its wall time, the wall time and
// measured instructions of every simulation the pool executed, and
// the matrix key and digest.
type sweepRun struct {
	wall   time.Duration
	sims   []time.Duration
	instrs uint64
	key    string // identifies the matrix inputs (every executed spec)
	digest string // sha256 over the PairRun matrix
	runner *experiments.Runner
}

// runSweep executes the matrix through experiments.Runner.RunAllContext
// with a fresh memory-only cache. The Runner names built-in profiles,
// so the benchmark seed reaches the simulations through the cache's
// run function, which perturbs each spec's profile seeds and times the
// simulation (see perturbingCache).
func runSweep(ctx context.Context, seed uint64, engine string, sp *spans, parent int) (*sweepRun, error) {
	out := &sweepRun{}
	var keys []string
	cache := perturbingCache(seed, engine, sp, parent, func(k string, wall time.Duration, res *sim.Result) {
		out.sims = append(out.sims, wall)
		out.instrs += measuredInstrs(res)
		keys = append(keys, k)
	})
	r := experiments.NewRunnerWith(sweepOptions(), cache)
	r.Workers = sweepWorkers
	out.runner = r
	start := time.Now()
	runs, err := r.RunAllContext(ctx)
	out.wall = time.Since(start)
	if err != nil {
		return nil, err
	}
	sort.Strings(keys)
	out.key = "sweep:" + sha256Hex([]byte(strings.Join(keys, "\n")))
	out.digest, err = matrixDigest(runs)
	return out, err
}

// perturbingCache is a fresh memory-only cache whose simulations run
// with the seed's perturbed profiles under engine ("" = default). Each
// simulation gets a span under parent and is reported to done, one at
// a time.
func perturbingCache(seed uint64, engine string, sp *spans, parent int, done func(key string, wall time.Duration, res *sim.Result)) *experiments.Cache {
	var mu sync.Mutex
	cache := experiments.NewMemCache()
	cache.SetRunFunc(func(ctx context.Context, spec sim.Spec) (*sim.Result, error) {
		spec = perturbSpec(spec, seed)
		spec.Engine = engine
		k, err := specKey(spec)
		if err != nil {
			return nil, err
		}
		id := sp.begin("sim.RunContext", parent, k[:12])
		start := time.Now()
		res, err := sim.RunContext(ctx, spec)
		wall := time.Since(start)
		sp.end(id)
		if err != nil {
			return nil, err
		}
		if done != nil {
			mu.Lock()
			done(k, wall, res)
			mu.Unlock()
		}
		return res, nil
	})
	return cache
}

// matrixDigest hashes the PairRun matrix in Pairs() order: each pair's
// single-thread IPCs and reference results, then its result at every
// F level.
func matrixDigest(runs []*experiments.PairRun) (string, error) {
	var b strings.Builder
	for _, pr := range runs {
		fmt.Fprintf(&b, "%s st=%v,%v\n", pr.Pair.Name(), pr.ST[0], pr.ST[1])
		for i, r := range pr.STRuns {
			d, err := resultDigest(r)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "  st%d %s\n", i, d)
		}
		for _, f := range experiments.FLevels {
			d, err := resultDigest(pr.ByF[f])
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "  F=%v %s\n", f, d)
		}
	}
	return sha256Hex([]byte(b.String())), nil
}

// sweepVariants is how many perturbed matrices fig-sweep cycles
// through. One matrix's total work moves by ±10% with the seed (each
// pair's run ends when its slower thread reaches the target); the
// sweeps of one run average over several.
const sweepVariants = 4

// sweepSeed is the seed of a run's k-th sweep.
func sweepSeed(seed uint64, k int) uint64 { return rng.Uint64At(seed, uint64(k%sweepVariants)) }

// sweepReference is the matrix digest under the reference engine.
func sweepReference(ctx context.Context, seed uint64) (string, error) {
	r, err := runSweep(ctx, seed, refEngine, nil, -1)
	if err != nil {
		return "", err
	}
	return r.digest, nil
}

// sweepE2E is the end-to-end run of fig-sweep: back-to-back cold
// matrices from one caller.
func sweepE2E(cfg runConfig) (*report, error) {
	ctx := context.Background()
	chk, err := newChecker()
	if err != nil {
		return nil, err
	}
	rep := newReport()

	var setups []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		// The untimed warm-up operation: the first pair's row of the
		// matrix through a fresh runner and cache.
		r := experiments.NewRunnerWith(sweepOptions(), perturbingCache(sweepSeed(cfg.seed, i), "", nil, -1, nil))
		if _, err := r.RunPairContext(ctx, experiments.Pairs()[0]); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	// The pool's two workers get a P each, as on the 2-core host the
	// workload is sized for. On one P they time-slice, a matrix takes
	// twice as long, and too few fit in a run for a steady median.
	var walls, sims, rates, mips []float64
	setProcs(sweepWorkers)
	deadline := time.Now().Add(cfg.duration())
	for k := 0; time.Now().Before(deadline); k++ {
		seed := sweepSeed(cfg.seed, k)
		rep.attempted++
		r, err := runSweep(ctx, seed, "", nil, -1)
		if err != nil {
			rep.failed++
			rep.linef("  sweep error: %v", err)
			continue
		}
		walls = append(walls, r.wall.Seconds())
		for _, s := range r.sims {
			sims = append(sims, s.Seconds())
		}
		rates = append(rates, float64(len(r.sims))/r.wall.Seconds())
		mips = append(mips, float64(r.instrs)/r.wall.Seconds()/1e6)
		chk.observe(r.key, r.digest, func() (string, error) { return sweepReference(ctx, seed) })
	}
	setProcs(1)
	if err := finishCheck(cfg, rep, chk); err != nil {
		return nil, err
	}
	if len(walls) == 0 {
		return nil, fmt.Errorf("no sweep completed")
	}
	rep.sample("sweep_s", "s", median(walls), len(walls))
	rep.sample("sim_mips", "Minstr/s", median(mips), len(mips))
	// One simulation's wall time would not show a pool that stopped
	// overlapping work: context only, never gated.
	rep.sample("sim_p50_s", "s", median(sims), len(sims))
	rep.sample("sim_p90_s", "s", quantile(sims, 0.9), len(sims))
	rep.set("latency_ms", "ms", 1000*median(walls))
	rep.set("ops_per_s", "1/s", median(rates))
	rep.set("sim_mips", "Minstr/s", median(mips))
	rep.set("setup_s", "s", median(setups))
	rep.sample("setup_s", "s", median(setups), len(setups))
	return rep, nil
}
