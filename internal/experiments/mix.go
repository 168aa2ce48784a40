package experiments

import (
	"context"
	"fmt"
	"strings"

	"soemt/internal/core"
	"soemt/internal/sim"
	"soemt/internal/workload"
)

// MixOffset is the start offset, in instructions, of each repeated
// copy of a benchmark in a mix, so two copies never run in lockstep
// (§5 of DESIGN.md).
const MixOffset = 100_000

// SplitMix splits a workload list ("gcc:mcf:swim:eon", commas also
// accepted) into trimmed, non-empty profile names.
func SplitMix(arg string) []string {
	sep := ":"
	if strings.Contains(arg, ",") {
		sep = ","
	}
	var names []string
	for _, n := range strings.Split(arg, sep) {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names
}

// ParseMix resolves a workload list (see SplitMix) into thread specs
// in slot order; see MixSpecs.
func ParseMix(arg string) ([]sim.ThreadSpec, error) {
	return MixSpecs(SplitMix(arg))
}

// MixSpecs builds thread specs from profile names in slot order.
// Repeated benchmarks get a 100k-instruction start offset per extra
// copy.
func MixSpecs(names []string) ([]sim.ThreadSpec, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("empty workload mix")
	}
	var specs []sim.ThreadSpec
	seen := map[string]int{}
	for i, n := range names {
		p, ok := workload.ByName(n)
		if !ok {
			return nil, fmt.Errorf("unknown profile %q (try soetrace -list)", n)
		}
		ts := sim.ThreadSpec{Profile: p, Slot: i}
		ts.StartSeq = uint64(seen[n]) * MixOffset
		seen[n]++
		specs = append(specs, ts)
	}
	return specs, nil
}

// refSpec is the single-thread reference run behind Eq. 3's IPC_ST
// for thread i of spec: that thread's profile, slot and StartSeq, run
// alone and event-only on spec's Memory and Pipeline config. The
// controller keeps its defaults, so a sweep over controller knobs
// (drain, Δ) shares one set of references.
func refSpec(spec sim.Spec, i int) sim.Spec {
	m := sim.DefaultMachine()
	m.Pipeline, m.Memory = spec.Machine.Pipeline, spec.Machine.Memory
	m.Controller.Policy = core.EventOnly{}
	ts := spec.Threads[i]
	return sim.Spec{
		Machine:  m,
		Threads:  []sim.ThreadSpec{{Profile: ts.Profile, Slot: ts.Slot, StartSeq: ts.StartSeq}},
		Scale:    spec.Scale,
		Watchdog: spec.Watchdog,
	}
}

// RefSpeedups runs every thread's reference (refSpec) through c and
// returns the references' IPCs and each thread's speedup (Eq. 3) in
// res, the result of spec. References share the cache, so sweeps pay
// for them once.
func RefSpeedups(ctx context.Context, c *Cache, spec sim.Spec, res *sim.Result) (ipcST, speedups []float64, err error) {
	ipc := make([]float64, len(spec.Threads))
	ipcST = make([]float64, len(spec.Threads))
	for i := range spec.Threads {
		ref, err := c.RunSpecContext(ctx, refSpec(spec, i))
		if err != nil {
			return nil, nil, err
		}
		ipc[i], ipcST[i] = res.Threads[i].IPC, ref.Threads[0].IPC
	}
	return ipcST, core.Speedups(ipc, ipcST), nil
}

// RunMix runs spec through c and returns the result plus per-thread
// speedups against its single-thread references (RefSpeedups).
func RunMix(ctx context.Context, c *Cache, spec sim.Spec) (*sim.Result, []float64, error) {
	res, err := c.RunSpecContext(ctx, spec)
	if err != nil {
		return nil, nil, err
	}
	if res.Truncated {
		c.logf("WARN %s truncated at MaxCycles=%d before reaching Measure=%d; values are approximate",
			mixName(spec), spec.Scale.MaxCycles, spec.Scale.Measure)
	}
	_, sp, err := RefSpeedups(ctx, c, spec, res)
	if err != nil {
		return nil, nil, err
	}
	return res, sp, nil
}

// mixName joins spec's profile names with colons ("gcc:eon").
func mixName(spec sim.Spec) string {
	names := make([]string, len(spec.Threads))
	for i, ts := range spec.Threads {
		names[i] = ts.Profile.Name
	}
	return strings.Join(names, ":")
}
