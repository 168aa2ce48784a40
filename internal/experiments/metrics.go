package experiments

import (
	"fmt"
	"time"

	"soemt/internal/obs"
)

// RunnerMetrics is a point-in-time snapshot of the experiment engine's
// instrumentation: how many simulations actually executed, how many
// were served from the cache layers, and the aggregate simulation
// rate. Obtain one from Runner.Metrics or Cache.Metrics.
type RunnerMetrics struct {
	RunsStarted   uint64 // simulations dispatched to sim.Run
	RunsCompleted uint64 // simulations that returned a result
	RunsFailed    uint64 // simulations that returned an error
	TruncatedRuns uint64 // completed runs with Result.Truncated set

	MemHits   uint64 // served from the in-memory layer
	DiskHits  uint64 // served from the on-disk store
	DedupHits uint64 // joined an identical in-flight run (singleflight)
	Misses    uint64 // required a fresh simulation

	SimulatedCycles uint64        // measured cycles across completed runs
	SimWall         time.Duration // wall time summed across completed runs

	// Sibling-scope savings (sim.Siblings, DESIGN.md §17): runs that
	// restored a sibling's fork snapshot instead of warming up, and runs
	// served a sibling's stored Result without simulating.
	PrefixReuse uint64
	ResultReuse uint64

	// Wall time per protocol phase, summed over the simulations that
	// published into this cache's registry (sim.phase.*_ns).
	BuildWall, CacheWarmWall, TimingWarmWall, MeasureWall time.Duration
}

// CacheHits returns hits across all layers (memory, disk, in-flight).
func (m RunnerMetrics) CacheHits() uint64 { return m.MemHits + m.DiskHits + m.DedupHits }

// CyclesPerSec returns the aggregate simulation throughput in
// simulated cycles per wall-clock second of simulation time.
func (m RunnerMetrics) CyclesPerSec() float64 {
	if m.SimWall <= 0 {
		return 0
	}
	return float64(m.SimulatedCycles) / m.SimWall.Seconds()
}

// String renders a one-line summary suitable for Progress callbacks.
func (m RunnerMetrics) String() string {
	return fmt.Sprintf(
		"runs=%d/%d (failed=%d truncated=%d) cache hits=%d (mem=%d disk=%d dedup=%d) misses=%d sim=%.2gMcyc %.3gMcyc/s wall=%s"+
			" sibling reuse prefix=%d result=%d phases build=%s cache-warm=%s timing-warm=%s measure=%s",
		m.RunsCompleted, m.RunsStarted, m.RunsFailed, m.TruncatedRuns,
		m.CacheHits(), m.MemHits, m.DiskHits, m.DedupHits, m.Misses,
		float64(m.SimulatedCycles)/1e6, m.CyclesPerSec()/1e6,
		m.SimWall.Round(time.Millisecond),
		m.PrefixReuse, m.ResultReuse,
		m.BuildWall.Round(time.Millisecond), m.CacheWarmWall.Round(time.Millisecond),
		m.TimingWarmWall.Round(time.Millisecond), m.MeasureWall.Round(time.Millisecond))
}

// metrics is the collector behind RunnerMetrics, backed by the
// observability registry's atomic counters (DESIGN.md §10) so the same
// values are visible through Cache.Observability alongside everything
// the simulations publish there. All updates are atomic adds;
// snapshot() is safe to call from any goroutine while runs are in
// flight (the previous ad-hoc atomic fields predated the registry and
// could not be aggregated with per-run metrics) — it is a
// consistent-enough view for progress reporting, not a transaction.
type metrics struct {
	reg *obs.Registry

	runsStarted   *obs.Counter
	runsCompleted *obs.Counter
	runsFailed    *obs.Counter
	truncated     *obs.Counter

	memHits   *obs.Counter
	diskHits  *obs.Counter
	dedupHits *obs.Counter
	misses    *obs.Counter

	// dedupRetries counts singleflight followers that re-elected a new
	// leader because the previous one's ctx was cancelled mid-run
	// (DESIGN.md §11); visible via the registry as cache.dedup_retries.
	dedupRetries *obs.Counter

	// Peer cache tier outcomes (DESIGN.md §13): hits are sha256-verified
	// results pulled from the ring owner, misses are clean ErrNoPeer
	// answers, errors are degraded fetches (network fault, corruption,
	// schema drift) that fell through to local execution.
	peerHits   *obs.Counter
	peerMisses *obs.Counter
	peerErrors *obs.Counter

	simCycles    *obs.Counter
	simWallNanos *obs.Counter

	prefixReuse, resultReuse                                  *obs.Counter
	buildNanos, cacheWarmNanos, timingWarmNanos, measureNanos *obs.Counter
}

// newMetrics resolves the collector's counters in reg (a fresh
// registry when nil).
func newMetrics(reg *obs.Registry) metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return metrics{
		reg:           reg,
		runsStarted:   reg.Counter("runner.runs_started"),
		runsCompleted: reg.Counter("runner.runs_completed"),
		runsFailed:    reg.Counter("runner.runs_failed"),
		truncated:     reg.Counter("runner.runs_truncated"),
		memHits:       reg.Counter("cache.mem_hits"),
		diskHits:      reg.Counter("cache.disk_hits"),
		dedupHits:     reg.Counter("cache.dedup_hits"),
		misses:        reg.Counter("cache.misses"),
		dedupRetries:  reg.Counter("cache.dedup_retries"),
		peerHits:      reg.Counter("cluster.peer_fill_hits"),
		peerMisses:    reg.Counter("cluster.peer_fill_misses"),
		peerErrors:    reg.Counter("cluster.peer_fill_errors"),
		simCycles:     reg.Counter("runner.sim_cycles"),
		simWallNanos:  reg.Counter("runner.sim_wall_nanos"),

		prefixReuse:     reg.Counter("sim.siblings.prefix_reuse"),
		resultReuse:     reg.Counter("sim.siblings.result_reuse"),
		buildNanos:      reg.Counter("sim.phase.build_ns"),
		cacheWarmNanos:  reg.Counter("sim.phase.cache_warm_ns"),
		timingWarmNanos: reg.Counter("sim.phase.timing_warm_ns"),
		measureNanos:    reg.Counter("sim.phase.measure_ns"),
	}
}

func (m *metrics) snapshot() RunnerMetrics {
	return RunnerMetrics{
		RunsStarted:     m.runsStarted.Load(),
		RunsCompleted:   m.runsCompleted.Load(),
		RunsFailed:      m.runsFailed.Load(),
		TruncatedRuns:   m.truncated.Load(),
		MemHits:         m.memHits.Load(),
		DiskHits:        m.diskHits.Load(),
		DedupHits:       m.dedupHits.Load(),
		Misses:          m.misses.Load(),
		SimulatedCycles: m.simCycles.Load(),
		SimWall:         time.Duration(m.simWallNanos.Load()),
		PrefixReuse:     m.prefixReuse.Load(),
		ResultReuse:     m.resultReuse.Load(),
		BuildWall:       time.Duration(m.buildNanos.Load()),
		CacheWarmWall:   time.Duration(m.cacheWarmNanos.Load()),
		TimingWarmWall:  time.Duration(m.timingWarmNanos.Load()),
		MeasureWall:     time.Duration(m.measureNanos.Load()),
	}
}
