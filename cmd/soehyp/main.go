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
	"soemt/internal/hypotheses"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list registered experiments and exit")
		runArg   = flag.String("run", "", "run a single experiment by name")
		all      = flag.Bool("all", false, "run every registered experiment")
		outDir   = flag.String("out", "", "write FINDINGS_<name>.md files into this directory instead of stdout")
		checkDir = flag.String("check", "", "compare fresh statuses against the committed FINDINGS in this directory; any mismatch or missing marker fails")
		rf       = cli.Register(flag.CommandLine, "tiny", cli.CacheDir)
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
			cli.Fatal("soehyp", fmt.Errorf("unknown experiment %q (try -list)", *runArg))
		}
		selected = []hypotheses.Experiment{e}
	case *all:
		selected = hypotheses.Experiments()
	default:
		flag.Usage()
		os.Exit(2)
	}

	rf.Run("soehyp", func(s *cli.Session) error {
		env := hypotheses.Env{Ctx: s.Ctx, ScaleName: rf.Scale, Scale: s.Scale, Cache: s.Cache}
		failed := 0
		for _, e := range selected {
			o, err := e.Run(env)
			if err != nil {
				return fmt.Errorf("experiment %s: %w", e.Name, err)
			}
			status := "SUPPORTED"
			if !o.Supported() {
				status = "REFUTED"
			}
			fmt.Fprintf(os.Stderr, "soehyp: %s: %s (scale=%s)\n", e.Name, status, rf.Scale)
			if err := writeFindings(*outDir, e, env, o); err != nil {
				return err
			}
			ok := o.Supported()
			if *checkDir != "" {
				path := hypotheses.FindingsPath(*checkDir, e.Name)
				committed, marked := hypotheses.ReadStatus(path)
				switch {
				case !marked:
					fmt.Fprintf(os.Stderr, "soehyp: REGRESSION: %s has no committed status marker\n", path)
					ok = false
				case committed != status:
					fmt.Fprintf(os.Stderr, "soehyp: REGRESSION: %s committed %s but measured %s at scale %s\n",
						e.Name, committed, status, rf.Scale)
					ok = false
				}
			}
			if !ok {
				failed++
			}
		}
		if failed > 0 {
			return fmt.Errorf("%d of %d experiments refuted or regressed", failed, len(selected))
		}
		return nil
	})
}

// writeFindings writes e's findings to dir/FINDINGS_<name>.md, or to
// stdout when dir is "".
func writeFindings(dir string, e hypotheses.Experiment, env hypotheses.Env, o *hypotheses.Outcome) error {
	if dir == "" {
		return hypotheses.WriteFindings(os.Stdout, e, env, o)
	}
	path := hypotheses.FindingsPath(dir, e.Name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := hypotheses.WriteFindings(f, e, env, o); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "soehyp: wrote %s\n", path)
	return nil
}
