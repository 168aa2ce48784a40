package hypotheses

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"soemt/internal/experiments"
	"soemt/internal/sim"
)

// tinyEnv is an in-memory environment at tiny scale, the scale the
// committed FINDINGS are generated at.
func tinyEnv() Env {
	return Env{
		Ctx:       context.Background(),
		ScaleName: "tiny",
		Scale:     sim.TinyScale(),
		Cache:     experiments.NewMemCache(),
	}
}

// TestExperimentsSupported runs every registered hypothesis experiment
// at the committed (tiny) scale and requires the measurements to
// support it — the policy zoo's acceptance gate. Failures print the
// full findings document so the refuting measurement is visible.
func TestExperimentsSupported(t *testing.T) {
	for _, e := range Experiments() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			env := tinyEnv()
			o, err := e.Run(env)
			if err != nil {
				t.Fatalf("experiment %s: %v", e.Name, err)
			}
			var b bytes.Buffer
			if err := WriteFindings(&b, e, env, o); err != nil {
				t.Fatalf("render findings: %v", err)
			}
			t.Logf("findings:\n%s", b.String())
			if !o.Supported() {
				t.Errorf("hypothesis %s refuted at scale %s", e.Name, env.ScaleName)
			}
		})
	}
}

// TestFindingsDeterministic renders the same outcome twice and demands
// byte-identical documents — the committed FINDINGS are regenerated
// artifacts, and nondeterminism (timestamps, map iteration) would turn
// every regeneration into a spurious diff.
func TestFindingsDeterministic(t *testing.T) {
	e, ok := ByName("grouped-fairness")
	if !ok {
		t.Fatal("grouped-fairness experiment missing")
	}
	env := tinyEnv()
	o := &Outcome{}
	o.check("sample", true, "a %.3f vs b %.3f", 1.0, 2.0)
	o.note("note")
	var b1, b2 bytes.Buffer
	if err := WriteFindings(&b1, e, env, o); err != nil {
		t.Fatal(err)
	}
	if err := WriteFindings(&b2, e, env, o); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("findings render is nondeterministic")
	}
}

// TestOutcomeSupported pins the vacuous-outcome rule: no checks means
// refuted, one failing check poisons the rest.
func TestOutcomeSupported(t *testing.T) {
	var o Outcome
	if o.Supported() {
		t.Error("outcome with no checks must not count as supported")
	}
	o.check("a", true, "ok")
	if !o.Supported() {
		t.Error("all-pass outcome must be supported")
	}
	o.check("b", false, "bad")
	if o.Supported() {
		t.Error("any failing check must refute")
	}
}

// TestRegistry pins the experiment list: every zoo policy has exactly
// one experiment, names are unique, and lookups resolve.
func TestRegistry(t *testing.T) {
	want := map[string]bool{"grouped-fairness": true, "wfq": true, "malthusian": true}
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if seen[e.Name] {
			t.Errorf("duplicate experiment %q", e.Name)
		}
		seen[e.Name] = true
		if !want[e.Name] {
			t.Errorf("unexpected experiment %q", e.Name)
		}
		if e.Hypothesis == "" || len(e.Method) == 0 || e.Run == nil {
			t.Errorf("experiment %q is missing hypothesis, method, or runner", e.Name)
		}
		if _, ok := ByName(e.Name); !ok {
			t.Errorf("ByName(%q) failed", e.Name)
		}
	}
	for n := range want {
		if !seen[n] {
			t.Errorf("missing experiment %q", n)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName must reject unknown names")
	}
}

// TestReadStatus round-trips the regression marker through a findings
// file on disk, including the missing-marker case the smoke script
// treats as a regression.
func TestReadStatus(t *testing.T) {
	dir := t.TempDir()
	path := FindingsPath(dir, "wfq")
	if !strings.HasSuffix(path, filepath.Join(dir, "FINDINGS_wfq.md")) {
		t.Fatalf("unexpected findings path %q", path)
	}
	e, _ := ByName("wfq")
	env := tinyEnv()
	o := &Outcome{}
	o.check("sample", true, "ok")
	var b bytes.Buffer
	if err := WriteFindings(&b, e, env, o); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	st, ok := ReadStatus(path)
	if !ok || st != "SUPPORTED" {
		t.Fatalf("ReadStatus = %q, %v; want SUPPORTED, true", st, ok)
	}
	if err := os.WriteFile(path, []byte("# no marker\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := ReadStatus(path); ok {
		t.Error("marker-less findings must not parse as a status")
	}
	if _, ok := ReadStatus(filepath.Join(dir, "absent.md")); ok {
		t.Error("missing file must not parse as a status")
	}
}
