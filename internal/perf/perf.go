// Package perf is the simulator's benchmark harness: it times
// simulation runs under both execution engines (idle fast-forward and
// the cycle-by-cycle reference), records wall time, simulated
// cycles/sec, retired instructions/sec and allocation deltas, and
// writes the results to numbered BENCH_<n>.json files so the perf
// trajectory of the simulator is measured rather than guessed.
//
// Regression checking deliberately compares the fast-forward speedup
// ratio (fast-forward vs reference on the same host, same binary, same
// instant) rather than absolute cycles/sec: the ratio cancels host
// speed, so a committed baseline stays meaningful on any CI runner.
package perf

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"soemt/internal/sim"
)

// Entry is one timed simulation run.
type Entry struct {
	Scenario string  `json:"scenario"`
	Engine   string  `json:"engine"` // "fast-forward" or "cycle-by-cycle"
	Seconds  float64 `json:"seconds"`

	SimCycles    uint64  `json:"sim_cycles"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
	Instrs       uint64  `json:"instrs"`
	InstrsPerSec float64 `json:"instrs_per_sec"`

	AllocBytes   uint64 `json:"alloc_bytes"`
	AllocObjects uint64 `json:"alloc_objects"`
}

// Report is the content of one BENCH_<n>.json.
type Report struct {
	CreatedAt string  `json:"created_at"`
	GoVersion string  `json:"go_version"`
	GOOS      string  `json:"goos"`
	GOARCH    string  `json:"goarch"`
	Scale     string  `json:"scale"`
	Entries   []Entry `json:"entries"`

	// Speedups maps scenario name to the fast-forward wall-clock
	// speedup over the cycle-by-cycle reference: the median over
	// paired rounds of ref seconds / ff seconds (see RunSuite).
	Speedups map[string]float64 `json:"speedups,omitempty"`

	// ObsOverhead maps scenario name to the wall-time ratio of a fully
	// observed run (event tracer + metrics registry attached) over the
	// same run with observability detached, the median over paired
	// rounds (see MeasureObsOverhead). The detached run IS the
	// production configuration, so this ratio bounds what DESIGN.md
	// §10's "≤2% when disabled" budget actually buys: the disabled cost
	// (one nil check per event site) cannot exceed the full enabled
	// cost measured here.
	ObsOverhead map[string]float64 `json:"obs_overhead,omitempty"`
}

// NewReport stamps a report with build metadata.
func NewReport(scale string) *Report {
	return &Report{
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Scale:     scale,
		Speedups:  map[string]float64{},
	}
}

// memDelta returns after-before clamped at zero. runtime.MemStats
// counters are cumulative and should only grow, but a clamped delta
// costs nothing and keeps a report free of 2^64-ish garbage if a
// counter ever goes backwards (stats snapshotted around a GC, or a
// future runtime changing counter semantics). A nonsense alloc column
// is worse than a zero: it poisons report diffs silently.
func memDelta(after, before uint64) uint64 {
	if after < before {
		return 0
	}
	return after - before
}

// rate returns n/secs, or 0 when the elapsed time is too small (or
// negative, after clock steps) to produce a finite, meaningful rate.
// Without the guard a ~0s run writes +Inf into BENCH_<n>.json, which
// is not valid JSON (encoding/json rejects it) and would poison every
// later Compare against that report.
func rate(n uint64, secs float64) float64 {
	if secs <= 0 {
		return 0
	}
	r := float64(n) / secs
	if math.IsInf(r, 0) || math.IsNaN(r) {
		return 0
	}
	return r
}

// Measure times fn and fills a raw Entry. fn returns the simulated
// cycle and instruction counts of the run it performed. Allocation
// deltas come from runtime.MemStats and include everything fn did.
func Measure(scenario, engine string, fn func() (cycles, instrs uint64, err error)) (Entry, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	cycles, instrs, err := fn()
	secs := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	if err != nil {
		return Entry{}, fmt.Errorf("perf: %s/%s: %w", scenario, engine, err)
	}
	e := Entry{
		Scenario:     scenario,
		Engine:       engine,
		Seconds:      secs,
		SimCycles:    cycles,
		Instrs:       instrs,
		AllocBytes:   memDelta(after.TotalAlloc, before.TotalAlloc),
		AllocObjects: memDelta(after.Mallocs, before.Mallocs),
	}
	e.CyclesPerSec = rate(cycles, secs)
	e.InstrsPerSec = rate(instrs, secs)
	return e, nil
}

// measureSpec times one simulation of spec, recorded under scenario
// and engine (or arm).
func measureSpec(ctx context.Context, scenario, engine string, spec sim.Spec) (Entry, error) {
	return Measure(scenario, engine, func() (uint64, uint64, error) {
		res, err := sim.RunContext(ctx, spec)
		if err != nil {
			return 0, 0, err
		}
		var instrs uint64
		for _, th := range res.Threads {
			instrs += th.Counters.Instrs
		}
		// SimCycles is the measured window only; warmup cycles are
		// simulated too but not reported, so cycles/sec is a
		// consistent (conservative) throughput metric.
		return res.WallCycles, instrs, nil
	})
}

// bySeconds orders entries by wall time.
func bySeconds(a, b Entry) int { return cmp.Compare(a.Seconds, b.Seconds) }

// pairedRounds times two arms in rounds of back-to-back runs, the arm
// that goes first alternating from round to round, and returns the
// median over rounds of arms[0]'s wall time divided by arms[1]'s, plus
// each arm's entries in round order. Pairing the arms within a round
// means a host that changes speed, or load from other processes, moves
// both sides of a ratio alike.
func pairedRounds(ctx context.Context, rounds int, arms [2]string, measure func(arm string) (Entry, error)) (float64, [2][]Entry, error) {
	var runs [2][]Entry
	ratios := make([]float64, 0, rounds)
	for round := 0; round < rounds; round++ {
		for _, i := range [2]int{round % 2, 1 - round%2} {
			if err := ctx.Err(); err != nil {
				return 0, runs, err
			}
			e, err := measure(arms[i])
			if err != nil {
				return 0, runs, err
			}
			runs[i] = append(runs[i], e)
		}
		if runs[1][round].Seconds <= 0 {
			// A ~0s wall time would make the ratio +Inf/NaN, which
			// encoding/json refuses to marshal — the whole report write
			// would fail long after the measurement ran.
			return 0, runs, fmt.Errorf("perf: %s run measured no wall time; ratio undefined", arms[1])
		}
		ratios = append(ratios, runs[0][round].Seconds/runs[1][round].Seconds)
	}
	sort.Float64s(ratios)
	return ratios[len(ratios)/2], runs, nil
}

// WriteNumbered writes the report to the first free BENCH_<n>.json in
// dir (starting at 1) and returns the path.
func (r *Report) WriteNumbered(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	for n := 1; ; n++ {
		path := filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", n))
		if _, err := os.Stat(path); err == nil {
			continue
		}
		return path, r.WriteFile(path)
	}
}

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ResolveBaseline turns a baseline argument into a concrete report
// path. A file path is returned as-is; a directory resolves to its
// highest-numbered BENCH_<n>.json, so a CI gate pointed at the repo
// root always compares against the newest committed report without
// anyone editing the workflow when BENCH_<n+1>.json lands.
func ResolveBaseline(path string) (string, error) {
	info, err := os.Stat(path)
	if err != nil {
		return "", err
	}
	if !info.IsDir() {
		return path, nil
	}
	matches, err := filepath.Glob(filepath.Join(path, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	best, bestN := "", -1
	for _, m := range matches {
		var n int
		if _, err := fmt.Sscanf(filepath.Base(m), "BENCH_%d.json", &n); err != nil {
			continue
		}
		if n > bestN {
			best, bestN = m, n
		}
	}
	if best == "" {
		return "", fmt.Errorf("perf: no BENCH_<n>.json reports in %s", path)
	}
	return best, nil
}

// Load reads a report back.
func Load(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("perf: %s: %w", path, err)
	}
	return &r, nil
}

// Compare checks current against a committed baseline and returns an
// error describing every scenario whose fast-forward speedup regressed
// by more than tolerance (e.g. 0.20 = 20%). Keys present in only one
// report are ignored (suites may grow, and baselines may carry ratios
// of removed engines), but an empty intersection is an error — it
// means the comparison checked nothing.
func Compare(current, baseline *Report, tolerance float64) error {
	var problems []string
	checked := 0
	names := make([]string, 0, len(baseline.Speedups))
	for name := range baseline.Speedups {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		base := baseline.Speedups[name]
		cur, ok := current.Speedups[name]
		if !ok || base <= 0 {
			continue
		}
		checked++
		if cur < base*(1-tolerance) {
			problems = append(problems, fmt.Sprintf(
				"%s: speedup %.2fx, baseline %.2fx (allowed floor %.2fx)",
				name, cur, base, base*(1-tolerance)))
		}
	}
	if checked == 0 {
		return fmt.Errorf("perf: no common scenarios between current report and baseline")
	}
	if len(problems) > 0 {
		return fmt.Errorf("perf: speedup regression beyond %.0f%%:\n  %s",
			tolerance*100, joinLines(problems))
	}
	return nil
}

func joinLines(xs []string) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += "\n  "
		}
		s += x
	}
	return s
}
