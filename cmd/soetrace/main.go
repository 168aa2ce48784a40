// Command soetrace generates, inspects and characterises LIT-like
// workload traces.
//
// Usage:
//
//	soetrace -list
//	    List the built-in SPEC-like workload profiles.
//
//	soetrace -characterize [-bench name] [-measure N]
//	    Run workloads alone on the simulated machine and report the
//	    characteristics the paper's model consumes: single-thread IPC,
//	    instructions per miss (IPM) and cycles per miss (CPM).
//
//	soetrace -gen name -o file.lit [-start N] [-slot K] [-events M]
//	    Write a trace container for the named profile, optionally with
//	    M synthetic interrupt/DMA events.
//
//	soetrace -show file.lit
//	    Decode and print a trace container.
package main

import (
	"flag"
	"fmt"
	"os"

	"soemt/internal/cli"
	"soemt/internal/rng"
	"soemt/internal/sim"
	"soemt/internal/stats"
	"soemt/internal/trace"
	"soemt/internal/workload"
)

func main() {
	var (
		list         = flag.Bool("list", false, "list built-in workload profiles")
		characterize = flag.Bool("characterize", false, "measure single-thread characteristics")
		benchName    = flag.String("bench", "", "restrict to one profile")
		measure      = flag.Uint64("measure", 400_000, "measured instructions per characterisation run")
		gen          = flag.String("gen", "", "generate a trace for the named profile")
		out          = flag.String("o", "", "output file for -gen")
		start        = flag.Uint64("start", 0, "checkpoint start sequence for -gen")
		slot         = flag.Uint("slot", 0, "address-space slot for -gen")
		events       = flag.Int("events", 0, "number of synthetic injectable events for -gen")
		show         = flag.String("show", "", "decode and print a trace file")
	)
	flag.Parse()

	switch {
	case *list:
		for _, n := range workload.Names() {
			p := workload.MustByName(n)
			fmt.Printf("%-8s load=%.2f store=%.2f branch=%.2f PCold=%.5f chain=%.2f\n",
				n, p.FracLoad, p.FracStore, p.FracBranch, p.PCold, p.ChainFrac)
		}
	case *characterize:
		if err := runCharacterize(*benchName, *measure); err != nil {
			cli.Fatal("soetrace", err)
		}
	case *gen != "":
		if err := runGen(*gen, *out, *start, uint32(*slot), *events); err != nil {
			cli.Fatal("soetrace", err)
		}
	case *show != "":
		if err := runShow(*show); err != nil {
			cli.Fatal("soetrace", err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func runCharacterize(only string, measure uint64) error {
	names := workload.Names()
	if only != "" {
		names = []string{only}
	}
	scale := sim.Scale{
		CacheWarm: measure / 2,
		Warm:      measure / 4,
		Measure:   measure,
		MaxCycles: 2000 * measure,
	}
	tbl := stats.NewTable("profile", "IPC_ST", "IPM", "CPM", "est IPC_ST", "misses")
	for _, n := range names {
		p, ok := workload.ByName(n)
		if !ok {
			return fmt.Errorf("unknown profile %q", n)
		}
		res, err := sim.RunSingle(sim.DefaultMachine(), sim.ThreadSpec{Profile: p, Slot: 0}, scale)
		if err != nil {
			return err
		}
		tr := res.Threads[0]
		tbl.AddRowf(n, tr.IPC, fmt.Sprintf("%.0f", tr.IPM), fmt.Sprintf("%.0f", tr.CPM),
			tr.EstIPCST, fmt.Sprintf("%d", tr.Counters.Misses))
	}
	fmt.Print(tbl.String())
	return nil
}

func runGen(name, out string, start uint64, slot uint32, nEvents int) error {
	if out == "" {
		return fmt.Errorf("-gen requires -o")
	}
	p, ok := workload.ByName(name)
	if !ok {
		return fmt.Errorf("unknown profile %q", name)
	}
	tr := &trace.Trace{
		Profile:    p,
		Checkpoint: trace.Checkpoint{StartSeq: start, Slot: slot},
	}
	s := rng.NewStream(p.Seed ^ 0xE7E7)
	at := start
	for i := 0; i < nEvents; i++ {
		at += 50_000 + uint64(s.Intn(100_000))
		tr.Events = append(tr.Events, trace.Event{
			AtInstr:     at,
			Kind:        trace.EventKind(s.Intn(3)),
			StallCycles: uint32(1000 + s.Intn(5000)),
		})
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := tr.Encode(f); err != nil {
		return err
	}
	fmt.Printf("wrote %s: profile=%s start=%d slot=%d events=%d\n",
		out, name, start, slot, len(tr.Events))
	return nil
}

func runShow(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.Decode(f)
	if err != nil {
		return err
	}
	fmt.Printf("profile:    %s (seed %#x)\n", tr.Profile.Name, tr.Profile.Seed)
	fmt.Printf("checkpoint: seq=%d slot=%d\n", tr.Checkpoint.StartSeq, tr.Checkpoint.Slot)
	fmt.Printf("mix:        load=%.2f store=%.2f branch=%.2f\n",
		tr.Profile.FracLoad, tr.Profile.FracStore, tr.Profile.FracBranch)
	fmt.Printf("memory:     PCold=%.5f PWarm=%.3f stride=%.2f cold=%dMiB\n",
		tr.Profile.PCold, tr.Profile.PWarm, tr.Profile.StrideFrac, tr.Profile.ColdBytes>>20)
	fmt.Printf("events:     %d\n", len(tr.Events))
	for i, e := range tr.Events {
		if i >= 10 {
			fmt.Printf("  ... %d more\n", len(tr.Events)-10)
			break
		}
		fmt.Printf("  @%-10d %-9s stall=%d\n", e.AtInstr, e.Kind, e.StallCycles)
	}
	return nil
}
