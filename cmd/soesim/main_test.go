package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"soemt/internal/core"
	"soemt/internal/experiments"
	"soemt/internal/sim"
	"soemt/internal/workload"
)

// TestMain lets the test binary stand in for the soesim executable:
// with SOESIM_TEST_MAIN=1 it runs main() on the arguments after "--".
func TestMain(m *testing.M) {
	if os.Getenv("SOESIM_TEST_MAIN") == "1" {
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

// soesim runs main with args in a subprocess and returns its stdout;
// a non-zero exit fails the test.
func soesim(t *testing.T, args ...string) []byte {
	t.Helper()
	out, _ := soesimStreams(t, args...)
	return out
}

// soesimStreams is soesim that also returns stderr.
func soesimStreams(t *testing.T, args ...string) (stdout, stderr []byte) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"--"}, args...)...)
	cmd.Env = append(os.Environ(), "SOESIM_TEST_MAIN=1")
	var errb bytes.Buffer
	cmd.Stderr = &errb
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("soesim %s: %v\nstderr:\n%s", strings.Join(args, " "), err, errb.String())
	}
	return out, errb.Bytes()
}

func TestDumpSamplesOneColumnGroupPerThread(t *testing.T) {
	sample := func(n int) core.Sample {
		s := core.Sample{Cycle: 1000}
		for i := 0; i < n; i++ {
			s.Threads = append(s.Threads, core.SampleThread{EstIPCST: 1, WindowIPC: 0.5, Quota: float64(100 * (i + 1))})
		}
		return s
	}
	for _, n := range []int{1, 2, 3} {
		res := &sim.Result{Threads: make([]sim.ThreadResult, n), Samples: []core.Sample{sample(n)}}
		var b bytes.Buffer
		dumpSamples(&b, res)
		lines := strings.Split(strings.TrimSpace(b.String()), "\n")
		header := strings.Fields(lines[0])
		row := strings.Fields(lines[len(lines)-1])
		if len(header) != 1+3*n || len(row) != 1+3*n {
			t.Fatalf("%d threads: header %q, row %q; want %d columns", n, header, row, 1+3*n)
		}
		if last := fmt.Sprintf("quota%d", n-1); header[len(header)-1] != last || row[len(row)-1] != fmt.Sprint(100*n) {
			t.Fatalf("%d threads: last column %q = %q", n, header[len(header)-1], row[len(row)-1])
		}
	}
	res := &sim.Result{Threads: make([]sim.ThreadResult, 2)}
	var b bytes.Buffer
	dumpSamples(&b, res)
	want := []string{"cycle", "estST0", "winIPC0", "quota0", "estST1", "winIPC1", "quota1"}
	if got := strings.Fields(b.String()); !reflect.DeepEqual(got[:len(want)], want) {
		t.Fatalf("two-thread header = %q, want %q", got, want)
	}
}

// A traced run is a run: -metrics counts it as it counts an untraced
// one, although it bypasses the result cache.
func TestTracedRunCountedInMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation in a subprocess")
	}
	trace := filepath.Join(t.TempDir(), "t.json")
	_, stderr := soesimStreams(t, "-threads", "gcc,eon", "-F", "1", "-scale", "tiny", "-metrics", "-trace-events", trace)
	if !strings.Contains(string(stderr), " runs=1/1 ") {
		t.Fatalf("traced run missing from the -metrics line:\n%s", stderr)
	}
}

func TestSamplesSingleThreadRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation in a subprocess")
	}
	out := string(soesim(t, "-threads", "swim", "-scale", "tiny", "-samples"))
	if !strings.Contains(out, "quota0") || strings.Contains(out, "quota1") {
		t.Fatalf("one-thread -samples output lacks its one column group:\n%s", out)
	}
}

// -model and -calibrate read -threads with the same splitter as the
// simulation path: colons and commas both work.
func TestModelAndCalibrateAcceptColonForm(t *testing.T) {
	colon := soesim(t, "-threads", "gcc:eon", "-F", "1", "-model", "-json")
	comma := soesim(t, "-threads", "gcc,eon", "-F", "1", "-model", "-json")
	if !bytes.Equal(colon, comma) {
		t.Fatalf("-model output differs by separator:\n%s\nvs\n%s", colon, comma)
	}
	want := []experiments.Pair{{A: "gcc", B: "eon"}}
	for _, arg := range []string{"gcc:eon", "gcc,eon"} {
		got, err := calibrationPairs(arg)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("calibrationPairs(%q) = %v, %v; want %v", arg, got, err, want)
		}
	}
	if _, err := calibrationPairs("gcc:eon:swim"); err == nil || !strings.Contains(err.Error(), "got 3") {
		t.Errorf("three profiles: error = %v", err)
	}
}

// stIPC runs profile name alone, event-only, in slot at start, on the
// default machine with mem applied to its memory system.
func stIPC(t *testing.T, name string, slot int, start uint64, mem func(*sim.MachineConfig)) float64 {
	t.Helper()
	m := sim.DefaultMachine()
	mem(&m)
	res, err := sim.RunContext(context.Background(), sim.Spec{
		Machine: m, Scale: sim.TinyScale(),
		Threads: []sim.ThreadSpec{{Profile: workload.MustByName(name), Slot: slot, StartSeq: start}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Threads[0].IPC
}

func refBlock(t *testing.T, out []byte) *jsonFairnessBlock {
	t.Helper()
	var res jsonResult
	if err := json.Unmarshal(out, &res); err != nil {
		t.Fatal(err)
	}
	if res.Fairness == nil {
		t.Fatalf("no fairness block in %s", out)
	}
	return res.Fairness
}

// -ref references run on the measured machine's memory system, so a
// -prefetch run divides by single-thread IPC with the prefetcher on
// (swim streams, so the prefetcher changes its IPC).
func TestRefRunsOnMeasuredMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	fb := refBlock(t, soesim(t, "-threads", "swim,eon", "-F", "1", "-ref", "-prefetch", "4", "-scale", "tiny", "-json"))
	prefetch := func(m *sim.MachineConfig) { m.Memory.PrefetchDegree = 4 }
	want := []float64{stIPC(t, "swim", 0, 0, prefetch), stIPC(t, "eon", 1, 0, prefetch)}
	if !reflect.DeepEqual(fb.IPCST, want) {
		t.Fatalf("IPC_ST = %v, want %v (references with the prefetcher on)", fb.IPCST, want)
	}
}

// A same-benchmark mix's second copy is measured against a reference
// at its own slot and start offset (soesweep -sweep F uses the same
// rule; see its TestSameBenchmarkPairReferences).
func TestRefSameBenchmarkMix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	fb := refBlock(t, soesim(t, "-threads", "gcc:gcc", "-F", "1", "-ref", "-scale", "tiny", "-json"))
	none := func(*sim.MachineConfig) {}
	want := []float64{stIPC(t, "gcc", 0, 0, none), stIPC(t, "gcc", 1, experiments.MixOffset, none)}
	if !reflect.DeepEqual(fb.IPCST, want) {
		t.Fatalf("IPC_ST = %v, want %v", fb.IPCST, want)
	}
}
