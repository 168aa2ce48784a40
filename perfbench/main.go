// Command perfbench is the repository benchmark: four workloads that
// together exercise every layer of the simulator and its service
// stack, measured from outside through the layers' public functions.
//
//	perfbench --workload busy-pair --seed 3 --seconds 10 --trace 0
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// makes the separate traced run that yields the per-layer metrics and
// writes spans, a CPU profile and a per-package table under --out.
// The last line of standard output is one JSON object. --workload all
// runs every workload, each in its own process, and prints a summary.
// --pin runs a workload at the default seed and stores the reference
// engine's result digests in digests.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"
)

// runConfig is what every workload run receives.
type runConfig struct {
	seed    uint64
	seconds float64
	out     string            // artifact directory
	pin     map[string]string // non-nil: collect reference digests
}

func (c runConfig) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// benchWorkload pairs a workload's end-to-end run with its traced run.
type benchWorkload struct {
	name  string
	e2e   func(runConfig) (*report, error)
	trace func(runConfig) (*report, error)
}

func workloads() []benchWorkload {
	return []benchWorkload{
		{"busy-pair", func(c runConfig) (*report, error) { return simPairRun(c, busySpecs(c.seed)) },
			func(c runConfig) (*report, error) { return simPairTrace(c, "busy-pair", busySpecs(c.seed)[0]) }},
		{"stall-pair", func(c runConfig) (*report, error) { return simPairRun(c, stallSpecs(c.seed)) },
			func(c runConfig) (*report, error) { return simPairTrace(c, "stall-pair", stallSpecs(c.seed)[0]) }},
		{"fig-sweep", sweepE2E, sweepTrace},
		{"serve-mix", serveE2E, serveTrace},
	}
}

// endToEnd names the metrics every untraced run reports, whatever the
// workload; BENCHMARK.json lists the same set with its bounds.
var endToEnd = []string{"setup_s", "peak_rss_mb", "sim_mips", "latency_ms", "ops_per_s"}

// calibDrift is the largest before/after change of the calibration
// kernel a run may show before it is flagged: the end-to-end metrics'
// bound in BENCHMARK.json.
const calibDrift = 0.25

func main() {
	var (
		name    = flag.String("workload", "", "busy-pair, stall-pair, fig-sweep, serve-mix, or all")
		seed    = flag.Uint64("seed", defaultSeed, "workload seed")
		seconds = flag.Float64("seconds", 10, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 = traced run with per-layer metrics")
		out     = flag.String("out", "perfbench/out", "directory for spans, profiles and tables")
		pin     = flag.String("pin", "", "write reference digests of this run at the default seed into this file")
	)
	flag.Parse()
	setProcs(1)
	if *name == "all" {
		if err := runAll(*seed, *seconds, *trace); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var w *benchWorkload
	for _, c := range workloads() {
		if c.name == *name {
			c := c
			w = &c
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1\n")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, out: *out}
	if *pin != "" {
		if *seed != defaultSeed {
			fmt.Fprintf(os.Stderr, "perfbench: --pin needs --seed %d\n", defaultSeed)
			os.Exit(2)
		}
		cfg.pin = map[string]string{}
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := runOne(*w, cfg, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if cfg.pin != nil {
		if err := mergePinned(*pin, cfg.pin); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
}

// runOne runs one workload with the calibration kernel timed before
// and after it, prints its lines, and ends with the JSON result.
func runOne(w benchWorkload, cfg runConfig, traced bool) error {
	before := calibrate()
	run := w.e2e
	if traced {
		run = w.trace
	}
	rep, err := run(cfg)
	if err != nil {
		return err
	}
	after := calibrate()
	if !traced {
		rep.set("peak_rss_mb", "MiB", rep.peakRSS)
		rep.sample("peak_rss_mb", "MiB", rep.peakRSS, 1)
	}
	if rep.attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	want := endToEnd
	if traced {
		want = nil
		for _, m := range perLayer {
			want = append(want, m.name)
		}
	}
	if len(rep.metrics) != len(want) {
		return fmt.Errorf("reported %d metrics, want %d", len(rep.metrics), len(want))
	}
	for _, n := range want {
		if _, ok := rep.metrics[n]; !ok {
			return fmt.Errorf("metric %s not reported", n)
		}
	}
	drift := after/before - 1
	flagNote := ""
	if math.Abs(drift) > calibDrift {
		flagNote = " FLAG: host speed changed during the run"
	}
	fmt.Printf("%s seed=%d seconds=%g trace=%v\n", w.name, cfg.seed, cfg.seconds, traced)
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	fmt.Printf("  failed_ratio   %12.4f fraction  n=%d\n", ratio(float64(rep.failed), float64(rep.attempted)), rep.attempted)
	fmt.Printf("  calibration    before=%.3fms after=%.3fms drift=%+.1f%%%s\n", before, after, 100*drift, flagNote)
	b, err := json.Marshal(map[string]any{
		"correct":   rep.failed == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   rep.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// mergePinned adds digests to the pinned file at path.
func mergePinned(path string, digests map[string]string) error {
	m := map[string]string{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &m); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	for k, v := range digests {
		m[k] = v
	}
	return writePinned(path, m)
}

// runAll runs every workload in its own process, so each reports its
// own peak memory, and prints the metrics side by side.
func runAll(seed uint64, seconds float64, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	type result struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	for _, w := range workloads() {
		cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
		cmd.Stderr = os.Stderr
		outb, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		lines := strings.Split(strings.TrimSpace(string(outb)), "\n")
		for _, l := range lines[:len(lines)-1] {
			fmt.Println(l)
		}
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			return fmt.Errorf("%s: result line: %w", w.name, err)
		}
		names := make([]string, 0, len(r.Metrics))
		for n := range r.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Printf("%s: correct=%v attempted=%d failed=%d\n", w.name, r.Correct, r.Attempted, r.Failed)
		for _, n := range names {
			fmt.Printf("  %-30s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
		}
	}
	return nil
}
