package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"soemt/internal/cli"
	"soemt/internal/core"
	"soemt/internal/experiments"
	"soemt/internal/sim"
	"soemt/internal/workload"
)

// TestMain lets the test binary stand in for the soesweep executable:
// with SOESWEEP_TEST_MAIN=1 it runs main() on the arguments after the
// "--" separator. That keeps the acceptance test hermetic — no go
// build step — while still exercising process-level signal delivery
// and real exit codes.
func TestMain(m *testing.M) {
	if os.Getenv("SOESWEEP_TEST_MAIN") == "1" {
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

func startSweep(t *testing.T, cacheDir, flushDelay string) (*exec.Cmd, *strings.Builder, io.ReadCloser) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "--",
		"-sweep", "F", "-points", "2", "-scale", "tiny", "-cache-dir", cacheDir)
	cmd.Env = append(os.Environ(),
		"SOESWEEP_TEST_MAIN=1",
		"SOESWEEP_TEST_FLUSH_DELAY="+flushDelay)
	var stdout strings.Builder
	cmd.Stdout = &stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd, &stdout, stderr
}

// Regression: a SIGINT landing while the final flush was underway used
// to be swallowed entirely — the process printed the table, cleared
// the interrupt marker and exited 0, indistinguishable from an
// undisturbed run. It must exit 130, and the (idempotent) flush must
// emit the table exactly once.
func TestInterruptDuringFinalFlush(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real sweep in a subprocess")
	}
	cacheDir := t.TempDir()
	cmd, stdout, stderr := startSweep(t, cacheDir, "2s")

	// The hook announces the open flush window on stderr; land the
	// signal inside it.
	sawFlush := make(chan bool, 1)
	stderrDone := make(chan struct{})
	var errLines strings.Builder
	go func() {
		defer close(stderrDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			fmt.Fprintln(&errLines, sc.Text())
			if strings.Contains(sc.Text(), "soesweep: flushing") {
				sawFlush <- true
			}
		}
	}()
	select {
	case <-sawFlush:
		if err := cmd.Process.Signal(os.Interrupt); err != nil {
			t.Fatal(err)
		}
	case <-stderrDone:
		cmd.Wait()
		t.Fatalf("sweep finished without ever opening a flush window; stderr:\n%s", errLines.String())
	case <-time.After(2 * time.Minute):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("sweep never reached the flush window; stderr:\n%s", errLines.String())
	}

	err := cmd.Wait()
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("sweep exited clean despite SIGINT during flush (err=%v); stderr:\n%s", err, errLines.String())
	}
	if code := ee.ExitCode(); code != cli.ExitInterrupted {
		t.Fatalf("exit code = %d, want %d; stderr:\n%s", code, cli.ExitInterrupted, errLines.String())
	}
	if n := strings.Count(stdout.String(), "fairness"); n != 1 {
		t.Fatalf("table header appeared %d times, want exactly 1:\n%s", n, stdout.String())
	}
	// The matrix itself completed, so the marker must not claim an
	// incomplete sweep.
	c, cerr := experiments.NewCache(cacheDir)
	if cerr != nil {
		t.Fatal(cerr)
	}
	if note, ok := c.Interrupted(); ok {
		t.Fatalf("completed sweep left an interrupt marker: %q", note)
	}
}

// An undisturbed run through the same hook still exits 0 with one
// table — the idempotence guard must not eat the only flush.
func TestFinalFlushCleanExit(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real sweep in a subprocess")
	}
	cmd, stdout, stderr := startSweep(t, t.TempDir(), "10ms")
	go io.Copy(io.Discard, stderr)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("clean sweep failed: %v", err)
	}
	if n := strings.Count(stdout.String(), "fairness"); n != 1 {
		t.Fatalf("table header appeared %d times, want exactly 1:\n%s", n, stdout.String())
	}
}

// sweepCSV runs main with args plus -csv in a subprocess and returns
// the CSV row whose first cell is key.
func sweepCSV(t *testing.T, key string, args ...string) []string {
	t.Helper()
	cmd := exec.Command(os.Args[0], append(append([]string{"--"}, args...), "-csv")...)
	cmd.Env = append(os.Environ(), "SOESWEEP_TEST_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("soesweep %s: %v\nstderr:\n%s", strings.Join(args, " "), err, stderr.String())
	}
	for _, line := range strings.Split(string(out), "\n") {
		if cells := strings.Split(line, ","); cells[0] == key {
			return cells
		}
	}
	t.Fatalf("no row %q in:\n%s", key, out)
	return nil
}

// wantFairness runs threads on m and each thread alone, event-only, at
// its slot and StartSeq on m's memory system, and formats the Eq. 4
// fairness of the resulting speedups as the sweep tables print it.
func wantFairness(t *testing.T, m sim.MachineConfig, threads []sim.ThreadSpec) string {
	t.Helper()
	run := func(m sim.MachineConfig, ts ...sim.ThreadSpec) *sim.Result {
		res, err := sim.RunContext(context.Background(), sim.Spec{Machine: m, Threads: ts, Scale: sim.TinyScale()})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run(m, threads...)
	ref := sim.DefaultMachine()
	ref.Memory = m.Memory
	var ipc, st []float64
	for i, ts := range threads {
		ipc = append(ipc, res.Threads[i].IPC)
		st = append(st, run(ref, ts).Threads[0].IPC)
	}
	return fmt.Sprintf("%.3f", core.FairnessMetric(core.Speedups(ipc, st)))
}

// A miss-latency point divides by single-thread IPC measured at that
// latency, not at the default 300 cycles.
func TestMisslatReferencesAtSweptLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	row := sweepCSV(t, "600", "-sweep", "misslat", "-values", "600", "-pair", "gcc:eon", "-F", "0.5", "-scale", "tiny")
	m := sim.DefaultMachine()
	m.Memory.MemLatency = 600
	m.Controller.MissLat = 600
	m.Controller.Policy = core.Fairness{F: 0.5}
	threads := []sim.ThreadSpec{
		{Profile: workload.MustByName("gcc"), Slot: 0},
		{Profile: workload.MustByName("eon"), Slot: 1},
	}
	if want := wantFairness(t, m, threads); row[2] != want {
		t.Fatalf("misslat 600 fairness = %s, want %s", row[2], want)
	}
}

// A same-benchmark pair's second copy is measured against a reference
// at its own slot and start offset, as soesim -ref measures the same
// mix (see soesim's TestRefSameBenchmarkMix), so both report one
// fairness.
func TestSameBenchmarkPairReferences(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	row := sweepCSV(t, "1.000", "-sweep", "F", "-pair", "gcc:gcc", "-points", "2", "-scale", "tiny")
	threads, err := experiments.ParseMix("gcc:gcc")
	if err != nil {
		t.Fatal(err)
	}
	m := sim.DefaultMachine()
	m.Controller.Policy = core.Fairness{F: 1}
	if want := wantFairness(t, m, threads); row[2] != want {
		t.Fatalf("gcc:gcc F=1 fairness = %s, want %s", row[2], want)
	}
}
