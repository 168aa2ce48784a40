// Command soehyp runs the policy-zoo hypothesis experiments
// (internal/hypotheses): each zoo policy ships with a falsifiable
// hypothesis, a deterministic experiment over pinned workload seeds,
// and a generated FINDINGS_<policy>.md.
//
// Examples:
//
//	soehyp -list                         # registered experiments
//	soehyp -run wfq                      # one experiment, findings to stdout
//	soehyp -all -out hypotheses          # regenerate every committed FINDINGS file
//	soehyp -all -scale quick -check hypotheses
//	                                     # CI smoke: re-run at QuickScale and fail
//	                                     # if any status regressed vs the committed docs
//
// Exit status is 0 only if every selected experiment is SUPPORTED
// (and, with -check, matches the committed status).
package main

import (
	"flag"
	"fmt"
	"os"

	"soemt/internal/cli"
	"soemt/internal/experiments"
	"soemt/internal/hypotheses"
	"soemt/internal/sim"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list registered experiments and exit")
		runArg   = flag.String("run", "", "run a single experiment by name")
		all      = flag.Bool("all", false, "run every registered experiment")
		scaleArg = flag.String("scale", "tiny", "tiny, quick or paper")
		outDir   = flag.String("out", "", "write FINDINGS_<name>.md files into this directory instead of stdout")
		checkDir = flag.String("check", "", "compare fresh statuses against the committed FINDINGS in this directory; any mismatch or missing marker fails")
		cacheDir = flag.String("cache-dir", "", "persistent result cache directory (content-addressed; see DESIGN.md)")
	)
	flag.Parse()

	if *list {
		for _, e := range hypotheses.Experiments() {
			fmt.Printf("%-18s policy=%-18s %s\n", e.Name, e.Policy, e.Hypothesis)
		}
		return
	}

	var selected []hypotheses.Experiment
	switch {
	case *runArg != "":
		e, ok := hypotheses.ByName(*runArg)
		if !ok {
			fatal(fmt.Errorf("unknown experiment %q (try -list)", *runArg))
		}
		selected = []hypotheses.Experiment{e}
	case *all:
		selected = hypotheses.Experiments()
	default:
		flag.Usage()
		os.Exit(2)
	}

	scale, err := sim.ScaleByName(*scaleArg)
	if err != nil {
		fatal(err)
	}
	cache, err := experiments.NewCache(*cacheDir)
	if err != nil {
		fatal(err)
	}
	cache.Logf = func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "soehyp: "+format+"\n", args...)
	}
	ctx, stop := cli.SignalContext()
	defer stop()

	env := hypotheses.Env{Ctx: ctx, ScaleName: *scaleArg, Scale: scale, Cache: cache}
	failed := false
	for _, e := range selected {
		o, err := e.Run(env)
		if err != nil {
			fatal(fmt.Errorf("experiment %s: %w", e.Name, err))
		}
		status := "SUPPORTED"
		if !o.Supported() {
			status = "REFUTED"
			failed = true
		}
		fmt.Fprintf(os.Stderr, "soehyp: %s: %s (scale=%s)\n", e.Name, status, *scaleArg)

		if *outDir != "" {
			path := hypotheses.FindingsPath(*outDir, e.Name)
			f, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			if err := hypotheses.WriteFindings(f, e, env, o); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "soehyp: wrote %s\n", path)
		} else {
			if err := hypotheses.WriteFindings(os.Stdout, e, env, o); err != nil {
				fatal(err)
			}
		}

		if *checkDir != "" {
			path := hypotheses.FindingsPath(*checkDir, e.Name)
			committed, ok := hypotheses.ReadStatus(path)
			switch {
			case !ok:
				fmt.Fprintf(os.Stderr, "soehyp: REGRESSION: %s has no committed status marker\n", path)
				failed = true
			case committed != status:
				fmt.Fprintf(os.Stderr, "soehyp: REGRESSION: %s committed %s but measured %s at scale %s\n",
					e.Name, committed, status, *scaleArg)
				failed = true
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "soehyp:", err)
	os.Exit(1)
}
