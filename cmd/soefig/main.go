// Command soefig regenerates the paper's tables and figures.
//
// Usage:
//
//	soefig -exp table2|table3|fig3|fig5|fig6|fig7|fig8|example1|timeshare|all
//	       [-scale tiny|quick|paper] [-v] [-html out.html]
//	       [-cache-dir dir] [-metrics] [-workers n]
//
// Analytical experiments (table2, fig3) are instant; simulation
// experiments run the two-thread SOE matrix and take seconds (tiny),
// minutes (quick) or tens of minutes (paper) depending on -scale.
// With -html the full reproduction is rendered as a standalone HTML
// document with SVG charts instead of text output.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"soemt/internal/cli"
	"soemt/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment to run (table2, table3, fig3, fig5, fig6, fig7, fig8, example1, timeshare, all)")
		verbose = flag.Bool("v", false, "print per-run progress")
		html    = flag.String("html", "", "write a standalone HTML report with SVG charts to this file")
		csvPath = flag.String("csv", "", "write the full evaluation matrix as tidy CSV to this file")
		rf      = cli.Register(flag.CommandLine, "quick", cli.CacheDir|cli.Metrics|cli.Workers|cli.Timeout|cli.Heartbeat)
	)
	flag.Parse()

	// SIGINT/SIGTERM cancel the matrix between execution slices. Pairs
	// already simulated stay in the cache (and are flushed as partial
	// output where the format allows it); a rerun over the same
	// -cache-dir resumes from them. A second signal kills immediately.
	rf.Run("soefig", func(s *cli.Session) error {
		opts := experiments.DefaultOptions()
		switch rf.Scale {
		case "tiny":
			opts.SameOffset = 50_000
		case "paper":
			opts = experiments.PaperOptions()
		}
		opts.Scale = s.Scale
		opts.Watchdog = s.Watchdog
		r := experiments.NewRunnerWith(opts, s.Cache)
		r.Workers = rf.Workers
		if *verbose {
			r.Progress = func(format string, args ...interface{}) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			}
		}
		switch {
		case *html != "":
			if err := writeHTMLReport(s.Ctx, *html, opts, r); err != nil {
				return fmt.Errorf("html report: %w", err)
			}
			fmt.Printf("wrote %s\n", *html)
			return nil
		case *csvPath != "":
			return writeCSV(s, r, *csvPath)
		}
		names := []string{*exp}
		if *exp == "all" {
			names = []string{"table3", "table2", "fig3", "example1", "fig5",
				"fig6", "fig7", "fig8", "timeshare"}
		}
		for i, n := range names {
			if i > 0 {
				fmt.Println("\n" + strings.Repeat("=", 78) + "\n")
			}
			if err := runExp(s.Ctx, os.Stdout, r, n); err != nil {
				return fmt.Errorf("%s: %w", n, err)
			}
		}
		return nil
	})
}

// runExp writes experiment name to w.
func runExp(ctx context.Context, w io.Writer, r *experiments.Runner, name string) error {
	switch name {
	case "table2":
		return experiments.ExpTable2(w)
	case "table3":
		return experiments.ExpTable3(w, r.Opts)
	case "fig3":
		return experiments.ExpFig3(w)
	case "example1":
		return experiments.ExpExample1Context(ctx, w, r)
	case "fig5":
		_, err := experiments.ExpFig5Context(ctx, w, r)
		return err
	case "fig6", "fig7", "fig8":
		runs, err := r.RunAllContext(ctx)
		if err != nil {
			return err
		}
		switch name {
		case "fig6":
			_, err = experiments.ExpFig6(w, runs)
		case "fig7":
			_, err = experiments.ExpFig7(w, runs)
		default:
			_, err = experiments.ExpFig8(w, runs)
		}
		return err
	case "timeshare":
		_, err := experiments.ExpTimeShareContext(ctx, w, r)
		return err
	}
	return fmt.Errorf("unknown experiment %q", name)
}

// writeCSV writes the evaluation matrix as tidy CSV to path. An
// interrupted matrix still writes the pairs it completed, followed by
// an "# interrupted" comment.
func writeCSV(s *cli.Session, r *experiments.Runner, path string) error {
	runs, runErr := r.RunAllContext(s.Ctx)
	if runErr != nil && !cli.Interrupted(s.Ctx, runErr) {
		return runErr
	}
	done := runs[:0:0]
	for _, pr := range runs {
		if pr != nil {
			done = append(done, pr)
		}
	}
	if runErr != nil && len(done) == 0 {
		return runErr
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := experiments.WriteCSV(f, done); err != nil {
		return err
	}
	if runErr != nil {
		fmt.Fprintf(f, "# interrupted: %d of %d pairs completed; rerun with the same -cache-dir to finish\n",
			len(done), len(runs))
		s.Hint = fmt.Sprintf("wrote partial matrix (%d/%d pairs) to %s", len(done), len(runs), path)
		s.Marker = "interrupted by signal (partial CSV flushed)"
		return runErr
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
