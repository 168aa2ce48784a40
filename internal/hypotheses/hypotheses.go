// Package hypotheses is the falsifiable-experiment harness for the
// policy zoo (DESIGN.md §15). Every non-paper policy lands with a
// stated hypothesis, a deterministic experiment over pinned workload
// seeds, and a generated FINDINGS_<policy>.md recording whether the
// measurements SUPPORTED or REFUTED it. The harness is deliberately
// boring: an experiment is a pure function from an Env (scale, cache)
// to an Outcome (pass/fail checks plus an evidence table), and the
// findings renderer is byte-deterministic — no timestamps, no
// environment leakage — so a findings regression is a meaningful diff,
// not noise. cmd/soehyp is the CLI; ci/hypotheses_smoke.sh re-runs
// every experiment at QuickScale and fails on any status regression
// against the committed findings.
package hypotheses

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"soemt/internal/experiments"
	"soemt/internal/sim"
	"soemt/internal/stats"
)

// Env is everything an experiment may depend on. Workload seeds are
// pinned inside the experiments themselves (profile seeds plus fixed
// StartSeq offsets); the environment only chooses how long to run.
type Env struct {
	Ctx       context.Context
	ScaleName string // "tiny", "quick", "paper" — recorded in FINDINGS
	Scale     sim.Scale
	Cache     *experiments.Cache
	Watchdog  sim.Watchdog
}

// Check is one falsification criterion: the hypothesis survives only
// if every check passes.
type Check struct {
	Name   string
	Detail string // measured values, e.g. "grouped 0.456 >= plain 0.243"
	Pass   bool
}

// Outcome is what an experiment measured.
type Outcome struct {
	Checks []Check
	Table  *stats.Table // evidence table (the N-thread sweep)
	Notes  []string     // mechanism observations that are not criteria
}

// Supported reports whether every check passed. An outcome with no
// checks is vacuous and counts as refuted — an experiment must state
// at least one way it could fail.
func (o *Outcome) Supported() bool {
	if len(o.Checks) == 0 {
		return false
	}
	for _, c := range o.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

func (o *Outcome) check(name string, pass bool, format string, args ...interface{}) {
	o.Checks = append(o.Checks, Check{Name: name, Detail: fmt.Sprintf(format, args...), Pass: pass})
}

func (o *Outcome) note(format string, args ...interface{}) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

// Experiment binds a policy to its falsifiable hypothesis.
type Experiment struct {
	Name       string // findings file key, e.g. "grouped-fairness"
	Policy     string // core.PolicyByName key under test
	Hypothesis string // one falsifiable sentence
	Method     []string
	Run        func(Env) (*Outcome, error)
}

// Experiments returns every registered experiment in deterministic
// order (the order FINDINGS and the smoke script iterate in).
func Experiments() []Experiment {
	return []Experiment{
		groupedFairnessExperiment(),
		wfqExperiment(),
		malthusianExperiment(),
	}
}

// ByName looks up a registered experiment.
func ByName(name string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// FindingsPath is the canonical location of an experiment's findings
// document under dir.
func FindingsPath(dir, name string) string {
	return filepath.Join(dir, "FINDINGS_"+name+".md")
}

const (
	statusSupported = "SUPPORTED"
	statusRefuted   = "REFUTED"
)

// statusLine is the machine-checked regression marker. It must stay
// greppable: ci/hypotheses_smoke.sh and ReadStatus both key on it.
func statusLine(o *Outcome, scaleName string) string {
	st := statusRefuted
	if o.Supported() {
		st = statusSupported
	}
	return fmt.Sprintf("**Status: %s** (scale=%s)", st, scaleName)
}

// WriteFindings renders the deterministic findings document.
func WriteFindings(w io.Writer, e Experiment, env Env, o *Outcome) error {
	var b bytes.Buffer
	fmt.Fprintf(&b, "# FINDINGS — %s\n\n", e.Name)
	fmt.Fprintf(&b, "%s\n\n", statusLine(o, env.ScaleName))
	fmt.Fprintf(&b, "## Hypothesis\n\n%s\n\n", e.Hypothesis)
	fmt.Fprintf(&b, "## Method\n\n")
	for _, m := range e.Method {
		fmt.Fprintf(&b, "- %s\n", m)
	}
	fmt.Fprintf(&b, "\n## Checks\n\n")
	fmt.Fprintf(&b, "| check | result | measured |\n|---|---|---|\n")
	for _, c := range o.Checks {
		r := "PASS"
		if !c.Pass {
			r = "FAIL"
		}
		fmt.Fprintf(&b, "| %s | %s | %s |\n", c.Name, r, c.Detail)
	}
	if o.Table != nil {
		fmt.Fprintf(&b, "\n## Evidence\n\n```\n")
		o.Table.WriteTo(&b)
		fmt.Fprintf(&b, "```\n")
	}
	if len(o.Notes) > 0 {
		fmt.Fprintf(&b, "\n## Notes\n\n")
		for _, n := range o.Notes {
			fmt.Fprintf(&b, "- %s\n", n)
		}
	}
	fmt.Fprintf(&b, "\nRegenerate: `go run ./cmd/soehyp -run %s -scale %s -out hypotheses`\n", e.Name, env.ScaleName)
	_, err := w.Write(b.Bytes())
	return err
}

// ReadStatus extracts the SUPPORTED/REFUTED marker from a committed
// findings document. ok is false when the file has no marker (or does
// not exist) — callers treat that as a regression, not a skip.
func ReadStatus(path string) (status string, ok bool) {
	f, err := os.Open(path)
	if err != nil {
		return "", false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "**Status: ") {
			continue
		}
		rest := strings.TrimPrefix(line, "**Status: ")
		if i := strings.Index(rest, "**"); i > 0 {
			return rest[:i], true
		}
	}
	return "", false
}
