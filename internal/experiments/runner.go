package experiments

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"

	"soemt/internal/core"
	"soemt/internal/faultinject"
	"soemt/internal/obs"
	"soemt/internal/sim"
	"soemt/internal/workload"
)

// FLevels are the enforcement levels evaluated throughout the paper.
var FLevels = []float64{0, 0.25, 0.5, 1}

// Options configures a reproduction run.
type Options struct {
	Machine sim.MachineConfig
	Scale   sim.Scale
	// SameOffset is the instruction offset between the two threads of
	// a same-benchmark pair (the paper uses 1,000,000).
	SameOffset uint64
	// Watchdog bounds each simulation's wall-clock time and forward
	// progress. It is execution policy, not simulation input: it is
	// excluded from fingerprints, so guarded and unguarded runs share
	// cache entries.
	Watchdog sim.Watchdog
}

// DefaultOptions returns quick-scale options (shapes hold; absolute
// values are noisier than paper scale). Use PaperOptions for the full
// §4.1 protocol.
func DefaultOptions() Options {
	return Options{
		Machine:    sim.DefaultMachine(),
		Scale:      sim.QuickScale(),
		SameOffset: 100_000,
	}
}

// PaperOptions returns the full-scale protocol of §4.1.
func PaperOptions() Options {
	return Options{
		Machine:    sim.DefaultMachine(),
		Scale:      sim.PaperScale(),
		SameOffset: 1_000_000,
	}
}

// PairRun holds the results of one pair at every enforcement level
// plus the single-thread references.
type PairRun struct {
	Pair   Pair
	ST     [2]float64              // real single-thread IPC per thread
	ByF    map[float64]*sim.Result // F level -> SOE result
	STRuns [2]*sim.Result
}

// Speedups returns per-thread speedups under F (IPC_SOE_j / IPC_ST_j),
// or zeros when the requested F level was never run.
func (pr *PairRun) Speedups(f float64) []float64 {
	r := pr.ByF[f]
	if r == nil || len(r.Threads) < 2 {
		return make([]float64, 2)
	}
	return core.Speedups([]float64{r.Threads[0].IPC, r.Threads[1].IPC}, pr.ST[:])
}

// Fairness returns the achieved fairness (Eq. 4) under F.
func (pr *PairRun) Fairness(f float64) float64 {
	return core.FairnessMetric(pr.Speedups(f))
}

// SOESpeedup returns the pair's SOE throughput gain over single
// thread: IPC_SOE_total / mean(IPC_ST), the paper's footnote-6 metric.
// It returns 0 when F was never run (e.g. a PairRun assembled by hand)
// or the references are empty.
func (pr *PairRun) SOESpeedup(f float64) float64 {
	r := pr.ByF[f]
	meanST := (pr.ST[0] + pr.ST[1]) / 2
	if r == nil || meanST == 0 {
		return 0
	}
	return r.IPCTotal / meanST
}

// NormalizedThroughput returns IPC_SOE(F) / IPC_SOE(0), Figure 7's
// left axis, or 0 when either level is missing from the run.
func (pr *PairRun) NormalizedThroughput(f float64) float64 {
	base, r := pr.ByF[0], pr.ByF[f]
	if base == nil || r == nil || base.IPCTotal == 0 {
		return 0
	}
	return r.IPCTotal / base.IPCTotal
}

// Runner executes the evaluation's simulation matrix — 16
// single-thread reference runs plus 16 pairs × len(FLevels) SOE runs —
// through a content-addressed result cache (see Cache). Identical
// concurrent runs are deduplicated in flight; with a persistent cache
// directory, repeated invocations are served from disk bit-identically.
type Runner struct {
	Opts Options

	// Workers bounds the number of concurrent simulations in
	// RunAllContext (each simulation is single-threaded and
	// deterministic); 0 means GOMAXPROCS.
	Workers int

	// Faults, if non-nil, deterministically injects faults into the
	// worker pool (sites "worker.delay" and "worker.panic") and is
	// propagated to the cache. Nil in production; see
	// internal/faultinject.
	Faults *faultinject.Injector

	cache *Cache

	mu    sync.Mutex
	pairs map[string]*PairRun

	// Progress, if non-nil, receives one line per completed run. It
	// may be called from multiple goroutines.
	Progress func(format string, args ...interface{})
}

// NewRunner creates a Runner with an in-memory result cache.
func NewRunner(opts Options) *Runner {
	r := &Runner{
		Opts:  opts,
		pairs: make(map[string]*PairRun),
		cache: NewMemCache(),
	}
	r.cache.Logf = r.logf
	return r
}

// NewRunnerWith creates a Runner backed by an existing cache, so
// several runners — e.g. one per measurement scale in a service —
// share one content-addressed store, one singleflight layer, and one
// metrics registry. The cache's Logf is left untouched (install a
// logger on the shared cache itself); per-runner Progress output still
// works. A nil cache falls back to NewRunner.
func NewRunnerWith(opts Options, c *Cache) *Runner {
	if c == nil {
		return NewRunner(opts)
	}
	return &Runner{
		Opts:  opts,
		pairs: make(map[string]*PairRun),
		cache: c,
	}
}

// Metrics returns a snapshot of the engine's instrumentation (runs
// executed, cache hits per layer, simulated cycles per second).
func (r *Runner) Metrics() RunnerMetrics { return r.cache.Metrics() }

// Observability returns the engine's metrics registry: the counters
// behind Metrics plus per-run engine metrics (pipe.*, core.*, sim.*)
// published by the simulations, and the RunAllContext pool gauges.
// Safe for concurrent use at any time, including mid-run.
func (r *Runner) Observability() *obs.Registry { return r.cache.Observability() }

func (r *Runner) logf(format string, args ...interface{}) {
	if r.Progress != nil {
		r.Progress(format, args...)
	}
}

// shareFaults propagates the fault injector installed by tests to the
// cache before a run. Only an installed injector is propagated:
// runners sharing a cache (NewRunnerWith) must not clear each other's
// faults. The field is written only when it changes, under r.mu, so
// runs that follow read it race-free.
func (r *Runner) shareFaults() {
	r.mu.Lock()
	if r.Faults != nil && r.cache.Faults != r.Faults {
		r.cache.Faults = r.Faults
	}
	r.mu.Unlock()
}

// warnTruncated logs when a run hit Scale.MaxCycles before reaching
// its measurement target: its IPC covers fewer instructions than
// requested and should be treated as approximate.
func (r *Runner) warnTruncated(label string, res *sim.Result) {
	if res.Truncated {
		r.logf("WARN %s truncated at MaxCycles=%d before reaching Measure=%d; IPC is approximate",
			label, r.Opts.Scale.MaxCycles, r.Opts.Scale.Measure)
	}
}

// STRefContext returns the single-thread reference result for a
// profile, honoring ctx. Safe for concurrent use; concurrent callers
// for the same profile share one in-flight simulation via the cache's
// singleflight layer.
func (r *Runner) STRefContext(ctx context.Context, name string) (*sim.Result, error) {
	prof, ok := workload.ByName(name)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown profile %q", name)
	}
	r.shareFaults()
	res, err := r.cache.RunSpecContext(ctx, r.stSpec(prof))
	if err != nil {
		return nil, err
	}
	r.warnTruncated("ST "+name, res)
	r.logf("ST  %-12s IPC=%.3f", name, res.Threads[0].IPC)
	return res, nil
}

// stSpec is the runner's single-thread spec for prof: slot 0,
// StartSeq 0, event-only on Opts.Machine. The matrix references
// (STRefContext) and the trace fit (measureProfile) both run it.
func (r *Runner) stSpec(prof workload.Profile) sim.Spec {
	m := r.Opts.Machine
	m.Controller.Policy = core.EventOnly{}
	return sim.Spec{
		Machine:  m,
		Threads:  []sim.ThreadSpec{{Profile: prof}},
		Scale:    r.Opts.Scale,
		Watchdog: r.Opts.Watchdog,
	}
}

// PolicyFor maps an F level to the controller policy: event-only at
// F <= 0, Fairness{F} above.
func PolicyFor(f float64) core.Policy {
	if f <= 0 {
		return core.EventOnly{}
	}
	return core.Fairness{F: f}
}

// runPairAt runs one pair at one enforcement level through the cache,
// with a sibling scope (nil = none) attached to the simulated spec.
func (r *Runner) runPairAt(ctx context.Context, p Pair, f float64, sib *sim.Siblings) (*sim.Result, error) {
	r.shareFaults()
	m := r.Opts.Machine
	m.Controller.Policy = PolicyFor(f)
	res, err := r.cache.RunSpecContext(ctx, sim.Spec{
		Machine:  m,
		Threads:  p.Threads(r.Opts.SameOffset),
		Scale:    r.Opts.Scale,
		Watchdog: r.Opts.Watchdog,
		Siblings: sib,
	})
	if err != nil {
		return nil, err
	}
	r.warnTruncated(fmt.Sprintf("SOE %s F=%v", p.Name(), f), res)
	r.logf("SOE %-12s F=%-4v IPC=%.3f switches=%d forced=%d",
		p.Name(), f, res.IPCTotal, res.Switches.Total(), res.Switches.Forced())
	return res, nil
}

// RunPairContext runs the full F matrix plus ST references for one
// pair and memoizes the assembled PairRun. Safe for concurrent use;
// the underlying simulations are deduplicated by the cache. A
// cancelled or failed pair is not memoized — a later call retries.
//
// The F levels run in order under one sim.Siblings scope: the first
// simulated level snapshots the machine at its first policy
// consultation and the later ones restore it, or reuse a whole Result
// when their quotas would agree (DESIGN.md §17).
func (r *Runner) RunPairContext(ctx context.Context, p Pair) (*PairRun, error) {
	r.mu.Lock()
	pr, ok := r.pairs[p.Name()]
	r.mu.Unlock()
	if ok {
		return pr, nil
	}
	pr = &PairRun{Pair: p, ByF: make(map[float64]*sim.Result)}
	for i, name := range []string{p.A, p.B} {
		res, err := r.STRefContext(ctx, name)
		if err != nil {
			return nil, err
		}
		pr.ST[i] = res.Threads[0].IPC
		pr.STRuns[i] = res
	}
	sib := new(sim.Siblings)
	for _, f := range FLevels {
		res, err := r.runPairAt(ctx, p, f, sib)
		if err != nil {
			return nil, err
		}
		pr.ByF[f] = res
	}
	r.mu.Lock()
	if prev, ok := r.pairs[p.Name()]; ok {
		pr = prev
	} else {
		r.pairs[p.Name()] = pr
	}
	r.mu.Unlock()
	return pr, nil
}

// RunAllContext runs the full matrix over Pairs(), distributing pairs
// across Workers goroutines (simulations are independent and
// deterministic, so the results do not depend on scheduling). The
// first error — including a recovered worker panic, or ctx being
// cancelled — stops dispatching; already-running simulations finish
// but no new pairs start.
//
// The returned slice is indexed like Pairs() and always carries every
// pair completed before the stop (nil for pairs that never finished),
// so an interrupted invocation can still flush partial results; the
// error reports why the matrix is incomplete. On success the error is
// nil and every slot is non-nil.
func (r *Runner) RunAllContext(ctx context.Context) ([]*PairRun, error) {
	ps := Pairs()
	out := make([]*PairRun, len(ps))

	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(ps) {
		workers = len(ps)
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		once     sync.Once
		firstErr error
	)
	fail := func(err error) {
		once.Do(func() {
			firstErr = err
			cancel()
		})
	}

	// Pool occupancy gauges: workers = configured size, active = pairs
	// being simulated right now. Visible mid-run via Observability.
	reg := r.Observability()
	reg.Gauge("pool.workers").Set(int64(workers))
	active := reg.Gauge("pool.active")

	runOne := func(ctx context.Context, p Pair) (pr *PairRun, err error) {
		defer func() {
			if rec := recover(); rec != nil {
				err = fmt.Errorf("experiments: pair %s: worker panic: %v", p.Name(), rec)
			}
		}()
		active.Add(1)
		defer active.Add(-1)
		r.Faults.Sleep("worker.delay")
		r.Faults.MaybePanic("worker.panic")
		// Label the pair for CPU profiles: `soesim -pprof` samples then
		// attribute to the pair being simulated, not just the pool.
		pprof.Do(ctx, pprof.Labels("soemt_pair", p.Name()), func(ctx context.Context) {
			pr, err = r.RunPairContext(ctx, p)
		})
		return pr, err
	}

	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// The worker label distinguishes pool goroutines in pprof
			// (goroutine and CPU profiles) on long matrix runs.
			pprof.Do(runCtx, pprof.Labels("soemt_worker", strconv.Itoa(w)), func(ctx context.Context) {
				for i := range next {
					if ctx.Err() != nil {
						continue // drain without running
					}
					pr, err := runOne(ctx, ps[i])
					if err != nil {
						fail(err)
						continue
					}
					out[i] = pr
				}
			})
		}(w)
	}
dispatch:
	for i := range ps {
		select {
		case next <- i:
		case <-runCtx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()

	if firstErr != nil {
		return out, firstErr
	}
	if err := runCtx.Err(); err != nil {
		return out, err
	}
	r.logf("metrics: %s", r.Metrics())
	return out, nil
}
