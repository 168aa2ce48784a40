package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"soemt/internal/cli"
	"soemt/internal/experiments"
)

// TestMain lets the test binary stand in for the soehyp executable:
// with SOEHYP_TEST_MAIN=1 it runs main() on the arguments after "--".
func TestMain(m *testing.M) {
	if os.Getenv("SOEHYP_TEST_MAIN") == "1" {
		for i, a := range os.Args {
			if a == "--" {
				os.Args = append([]string{os.Args[0]}, os.Args[i+1:]...)
				break
			}
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func soehyp(cacheDir string) (*exec.Cmd, *strings.Builder) {
	cmd := exec.Command(os.Args[0], "--", "-run", "wfq", "-scale", "tiny", "-cache-dir", cacheDir)
	cmd.Env = append(os.Environ(), "SOEHYP_TEST_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	return cmd, &stderr
}

// SIGINT during an experiment exits 130 and marks the cache; a rerun
// over the same cache notes the resume, finishes and clears the marker.
func TestInterruptMarksCacheAndResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real experiment in a subprocess")
	}
	dir := t.TempDir()
	cmd, stderr := soehyp(dir)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The experiment runs two simulations; land the signal once the
	// first is cached, while the second is running.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if done, _ := filepath.Glob(filepath.Join(dir, "*.json")); len(done) > 0 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("no simulation finished within 2m; stderr:\n%s", stderr)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != cli.ExitInterrupted {
		t.Fatalf("interrupted run: %v, want exit %d; stderr:\n%s", err, cli.ExitInterrupted, stderr)
	}
	c, err := experiments.NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Interrupted(); !ok {
		t.Fatalf("interrupted run left no marker; stderr:\n%s", stderr)
	}

	cmd, stderr = soehyp(dir)
	cmd.Stdout = nil
	if err := cmd.Run(); err != nil {
		t.Fatalf("rerun: %v; stderr:\n%s", err, stderr)
	}
	if !strings.Contains(stderr.String(), "was interrupted") {
		t.Fatalf("rerun printed no resume note; stderr:\n%s", stderr)
	}
	if _, ok := c.Interrupted(); ok {
		t.Fatalf("completed rerun kept the marker; stderr:\n%s", stderr)
	}
}
