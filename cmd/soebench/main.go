// soebench runs the standing benchmark suite under both execution
// engines (idle fast-forward and the cycle-by-cycle reference) in
// -iters rounds that run the two engines back to back, alternating
// which goes first, and takes each scenario's speedup as the median of
// the per-round ratios. It writes a BENCH_<n>.json report and
// optionally gates on a committed baseline: the per-scenario
// fast-forward speedup ratios must not regress by more than
// -tolerance. -baseline accepts either a report file or a directory,
// which resolves to its newest BENCH_<n>.json.
//
//	soebench -scale quick -out .              # measure, write BENCH_<n>.json
//	soebench -scale tiny -baseline .          # CI smoke gate vs newest committed report
package main

import (
	"flag"
	"fmt"
	"os"

	"soemt/internal/cli"
	"soemt/internal/perf"
	"soemt/internal/sim"
)

func main() {
	var (
		outDir    = flag.String("out", ".", "directory for the numbered BENCH_<n>.json report")
		outFile   = flag.String("o", "", "exact report path (overrides -out numbering)")
		baseline  = flag.String("baseline", "", "baseline report, or directory holding BENCH_<n>.json files, to gate against (empty = no gate)")
		iters     = flag.Int("iters", 3, "timed runs per scenario/engine cell; the median is reported")
		tolerance = flag.Float64("tolerance", 0.20, "allowed fractional speedup regression vs baseline")
		minFF     = flag.Float64("min-speedup", 0, "fail unless some scenario's engine speedup reaches this")
		obsRounds = flag.Int("obs-rounds", 3, "best-of rounds for the observability overhead measurement (0 = skip)")
		maxObs    = flag.Float64("max-obs-overhead", 0, "fail if the obs-on/obs-off wall-time ratio exceeds this (0 = no gate)")
		rf        = cli.Register(flag.CommandLine, "quick", 0)
	)
	flag.Parse()

	scale, err := sim.ScaleByName(rf.Scale)
	if err != nil {
		cli.Fatal("soebench", err)
	}
	ctx, cancel := cli.SignalContext()
	defer cancel()

	report := perf.NewReport(rf.Scale)
	suite := perf.DefaultSuite(scale)
	if err := perf.RunSuite(ctx, report, suite, *iters, func(line string) {
		fmt.Fprintln(os.Stderr, line)
	}); err != nil {
		cli.Fatal("soebench", err)
	}
	var obsRatio float64
	if *obsRounds > 0 {
		obsRatio, err = perf.MeasureObsOverhead(ctx, report, scale, *obsRounds, func(line string) {
			fmt.Fprintln(os.Stderr, line)
		})
		if err != nil {
			cli.Fatal("soebench", err)
		}
	}

	path := *outFile
	if path != "" {
		err = report.WriteFile(path)
	} else {
		path, err = report.WriteNumbered(*outDir)
	}
	if err != nil {
		cli.Fatal("soebench", err)
	}
	fmt.Println(path)

	if *minFF > 0 {
		best := 0.0
		for _, s := range report.Speedups {
			if s > best {
				best = s
			}
		}
		if best < *minFF {
			cli.Fatal("soebench", fmt.Errorf("best engine speedup %.2fx below required %.2fx", best, *minFF))
		}
	}
	if *maxObs > 0 && obsRatio > *maxObs {
		cli.Fatal("soebench", fmt.Errorf("observability overhead ratio %.3f exceeds allowed %.3f", obsRatio, *maxObs))
	}
	if *baseline != "" {
		basePath, err := perf.ResolveBaseline(*baseline)
		if err != nil {
			cli.Fatal("soebench", err)
		}
		base, err := perf.Load(basePath)
		if err != nil {
			cli.Fatal("soebench", err)
		}
		if err := perf.Compare(report, base, *tolerance); err != nil {
			cli.Fatal("soebench", err)
		}
		fmt.Fprintf(os.Stderr, "baseline gate passed vs %s (tolerance %.0f%%)\n", basePath, *tolerance*100)
	}
}
