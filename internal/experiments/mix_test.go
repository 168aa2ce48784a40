package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"soemt/internal/core"
	"soemt/internal/sim"
)

func TestSplitMixAcceptsColonsAndCommas(t *testing.T) {
	want := []string{"gcc", "eon"}
	for _, arg := range []string{"gcc:eon", "gcc, eon", " gcc:eon: "} {
		if got := SplitMix(arg); !reflect.DeepEqual(got, want) {
			t.Errorf("SplitMix(%q) = %q, want %q", arg, got, want)
		}
	}
}

func TestParsePair(t *testing.T) {
	p, err := ParsePair("gcc:gcc")
	if err != nil || p != (Pair{"gcc", "gcc"}) {
		t.Fatalf("ParsePair(gcc:gcc) = %v, %v", p, err)
	}
	ts := p.Threads(MixOffset)
	mix, err := ParseMix("gcc:gcc")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ts, mix) {
		t.Fatalf("pair threads %+v differ from the mix's %+v", ts, mix)
	}
	for arg, want := range map[string]string{
		"gcc":     "pair must be a:b",
		"gcc:foo": `unknown profile "foo"`,
	} {
		if _, err := ParsePair(arg); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ParsePair(%q) error = %v, want %q", arg, err, want)
		}
	}
}

// A reference is the measured thread alone, event-only, on the measured
// machine's memory and pipeline; the controller keeps its defaults.
func TestRefSpecRule(t *testing.T) {
	threads, err := ParseMix("gcc:gcc")
	if err != nil {
		t.Fatal(err)
	}
	m := sim.DefaultMachine()
	m.Controller.Policy = core.Fairness{F: 1}
	m.Controller.DrainCycles = 48
	m.Controller.MissLat = 600
	m.Memory.MemLatency = 600
	m.Memory.PrefetchDegree = 4
	m.Pipeline.ROBSize *= 2
	spec := sim.Spec{
		Machine: m, Threads: threads, Scale: sim.TinyScale(),
		Watchdog: sim.Watchdog{StallCycles: 7}, Engine: "cycle-by-cycle",
		Siblings: new(sim.Siblings),
	}

	ref := refSpec(spec, 1)
	want := sim.DefaultMachine()
	want.Controller.Policy = core.EventOnly{}
	want.Memory, want.Pipeline = m.Memory, m.Pipeline
	if !reflect.DeepEqual(ref.Machine, want) {
		t.Errorf("reference machine = %+v, want %+v", ref.Machine, want)
	}
	if len(ref.Threads) != 1 || ref.Threads[0].Slot != 1 || ref.Threads[0].StartSeq != MixOffset ||
		ref.Threads[0].Profile.Name != "gcc" {
		t.Errorf("reference threads = %+v, want gcc alone in slot 1 at StartSeq %d", ref.Threads, MixOffset)
	}
	if ref.Scale != spec.Scale || ref.Watchdog != spec.Watchdog {
		t.Errorf("reference scale/watchdog = %+v/%+v, want the measured run's", ref.Scale, ref.Watchdog)
	}
	if ref.Siblings != nil || ref.Engine != "" {
		t.Errorf("reference inherits siblings %v / engine %q", ref.Siblings, ref.Engine)
	}
}

// Sweeps over controller knobs (drain, Δ) keep their references; a
// memory-latency sweep gets references at each latency.
func TestRefSpecFollowsMemoryNotController(t *testing.T) {
	threads, err := ParseMix("gcc:eon")
	if err != nil {
		t.Fatal(err)
	}
	refKey := func(edit func(*sim.MachineConfig)) string {
		m := sim.DefaultMachine()
		m.Controller.Policy = core.Fairness{F: 0.5}
		edit(&m)
		key, err := Fingerprint(refSpec(sim.Spec{Machine: m, Threads: threads, Scale: sim.TinyScale()}, 1))
		if err != nil {
			t.Fatal(err)
		}
		return key
	}
	base := refKey(func(*sim.MachineConfig) {})
	if got := refKey(func(m *sim.MachineConfig) { m.Controller.DrainCycles = 48 }); got != base {
		t.Error("a drain point changed the reference")
	}
	if got := refKey(func(m *sim.MachineConfig) { m.Controller.Delta = 50_000; m.Controller.MaxCyclesQuota = 10_000 }); got != base {
		t.Error("a Δ point changed the reference")
	}
	if got := refKey(func(m *sim.MachineConfig) { m.Memory.MemLatency = 600; m.Controller.MissLat = 600 }); got == base {
		t.Error("a miss-latency point kept the default-latency reference")
	}
}

// RunMix divides each thread's IPC by its own reference's IPC.
func TestRunMixSpeedupsAgainstReferences(t *testing.T) {
	c := NewMemCache()
	c.SetRunFunc(func(_ context.Context, spec sim.Spec) (*sim.Result, error) {
		res := &sim.Result{}
		for _, ts := range spec.Threads {
			ipc := 0.25 * float64(ts.Slot+1) // SOE run
			if len(spec.Threads) == 1 {
				ipc = 0.5 * float64(ts.Slot+1) // reference
			}
			res.Threads = append(res.Threads, sim.ThreadResult{Name: ts.Profile.Name, IPC: ipc})
		}
		return res, nil
	})
	threads, err := ParseMix("gcc:eon:swim")
	if err != nil {
		t.Fatal(err)
	}
	_, sp, err := RunMix(context.Background(), c,
		sim.Spec{Machine: sim.DefaultMachine(), Threads: threads, Scale: sim.TinyScale()})
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{0.5, 0.5, 0.5}; !reflect.DeepEqual(sp, want) {
		t.Fatalf("speedups = %v, want %v", sp, want)
	}
	if m := c.Metrics(); m.RunsStarted != 4 {
		t.Fatalf("runs started = %d, want 1 SOE run + 3 references", m.RunsStarted)
	}
}
