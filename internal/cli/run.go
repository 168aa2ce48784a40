package cli

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"soemt/internal/experiments"
	"soemt/internal/sim"
)

// RunFlags holds the run flags the soemt commands share. Each flag is
// defined once, by Register; a command registers the subset it takes.
type RunFlags struct {
	Scale     string
	CacheDir  string
	Metrics   bool
	Timeout   time.Duration
	Heartbeat time.Duration
	Workers   int
}

// Opt selects the optional run flags Register defines.
type Opt uint

const (
	CacheDir Opt = 1 << iota
	Metrics
	Timeout
	Heartbeat
	Workers
)

// Register defines -scale with default scale (none when scale is "")
// and the run flags selected by opts on fs.
func Register(fs *flag.FlagSet, scale string, opts Opt) *RunFlags {
	f := new(RunFlags)
	if scale != "" {
		ScaleVar(fs, &f.Scale, "scale", scale)
	}
	if opts&CacheDir != 0 {
		fs.StringVar(&f.CacheDir, "cache-dir", "", "persistent result cache directory (content-addressed; see DESIGN.md)")
	}
	if opts&Metrics != 0 {
		fs.BoolVar(&f.Metrics, "metrics", false, "print run/cache metrics to stderr on exit")
	}
	if opts&Timeout != 0 {
		fs.DurationVar(&f.Timeout, "timeout", 0, "wall-clock budget per simulation, e.g. 90s (0 = unlimited); an exceeded run fails with a deadline error")
	}
	if opts&Heartbeat != 0 {
		fs.DurationVar(&f.Heartbeat, "heartbeat", 0, "print a metrics heartbeat line to stderr at this interval during long runs, e.g. 30s (0 = off)")
	}
	if opts&Workers != 0 {
		fs.IntVar(&f.Workers, "workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	}
	return f
}

// ScaleVar defines a simulation-scale flag called name (resolved by
// sim.ScaleByName) with default def.
func ScaleVar(fs *flag.FlagSet, p *string, name, def string) {
	fs.StringVar(p, name, def, "simulation scale: tiny, quick or paper")
}

// Session is one run of a command: its resolved scale, its result
// cache, and a context cancelled by SIGINT/SIGTERM.
type Session struct {
	Ctx      context.Context
	Scale    sim.Scale
	Cache    *experiments.Cache
	Watchdog sim.Watchdog

	// Hint follows "prog: interrupted; " on stderr when a signal ends
	// the run ("" prints no line). Marker is the note the interrupt
	// marker records.
	Hint, Marker string
}

// Run resolves the scale, opens the result cache (warnings prefixed
// "prog: "), starts the heartbeat, notes a resumed run, runs body and
// exits:
//   - success clears the interrupt marker and returns, or exits 130
//     when a signal landed after body finished;
//   - an interrupt writes the marker, prints the hint and exits 130;
//   - any other error prints "prog: err" and exits 1.
//
// With -metrics the metrics line is printed in all three cases.
func (f *RunFlags) Run(prog string, body func(*Session) error) {
	ctx, stop := SignalContext()
	code := f.run(ctx, prog, body)
	stop()
	if code != 0 {
		os.Exit(code)
	}
}

// run is Run under ctx, returning the exit status.
func (f *RunFlags) run(ctx context.Context, prog string, body func(*Session) error) int {
	sc, err := sim.ScaleByName(f.Scale)
	if err != nil {
		return report(prog, err)
	}
	c, err := experiments.NewCache(f.CacheDir)
	if err != nil {
		return report(prog, err)
	}
	c.Logf = func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, prog+": "+format+"\n", args...)
	}
	s := &Session{
		Ctx: ctx, Scale: sc, Cache: c,
		Watchdog: sim.Watchdog{Timeout: f.Timeout},
		Hint:     "completed simulations are cached — rerun with the same -cache-dir to resume",
		Marker:   "interrupted by signal",
	}
	stopBeat := StartHeartbeat(ctx, prog, f.Heartbeat, func() string { return c.Metrics().String() })
	NoteResume(prog, c)
	err = body(s)
	stopBeat()
	if f.Metrics {
		fmt.Fprintf(os.Stderr, "%s: metrics: %s\n", prog, c.Metrics())
	}
	switch {
	case err == nil:
		ClearInterrupted(prog, c)
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "%s: interrupted after the run completed; output is complete\n", prog)
			return ExitInterrupted
		}
		return 0
	case Interrupted(ctx, err):
		MarkInterrupted(prog, c, s.Marker)
		if s.Hint != "" {
			fmt.Fprintf(os.Stderr, "%s: interrupted; %s\n", prog, s.Hint)
		}
		return ExitInterrupted
	}
	return report(prog, err)
}

// Fatal prints "prog: err" to stderr and exits 1.
func Fatal(prog string, err error) { os.Exit(report(prog, err)) }

// report prints "prog: err" to stderr and returns exit status 1.
func report(prog string, err error) int {
	fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
	return 1
}

// SplitList splits a comma-separated list into trimmed, non-empty
// items.
func SplitList(s string) []string {
	var out []string
	for _, n := range strings.Split(s, ",") {
		if n = strings.TrimSpace(n); n != "" {
			out = append(out, n)
		}
	}
	return out
}

// ParseFloats parses a comma-separated list of numbers; "" is nil.
func ParseFloats(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}
