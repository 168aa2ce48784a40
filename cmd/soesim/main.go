// Command soesim runs a single SOE simulation: one or more workloads
// on the simulated machine under a chosen switch policy, reporting
// per-thread performance, fairness, and switch statistics.
//
// Examples:
//
//	soesim -threads gcc,eon                      # SOE without fairness
//	soesim -threads gcc,eon -F 0.5               # enforce fairness 1/2
//	soesim -threads gcc,eon -timeshare 400       # §6 time-share baseline
//	soesim -threads swim                         # single-thread reference
//	soesim -threads gcc,eon -F 1 -ref            # also run ST references,
//	                                             # report speedups/fairness
//	soesim -trace t1.lit,t2.lit -F 0.25          # run from trace files
//	soesim -threads gcc,eon -F 1 -ref -json      # machine-readable output
//	soesim -threads gcc,eon -l1-switch -prefetch 4   # §6/ablation features
//	soesim -threads gcc,eon -trace-events t.json -obs-metrics
//	                                             # cycle-level event trace
//	                                             # (chrome://tracing) + registry dump
//	soesim -threads gcc,eon -F 1 -model          # calibrated analytical answer
//	                                             # (microseconds, error bars, no sim)
//	soesim -threads gcc,eon -calibrate cal.json  # fit + persist a calibration
//	soesim -threads gcc,eon -model -calibration cal.json -json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"

	"soemt/internal/cli"
	"soemt/internal/core"
	"soemt/internal/experiments"
	"soemt/internal/obs"
	"soemt/internal/pipeline"
	"soemt/internal/sim"
	"soemt/internal/stats"
	"soemt/internal/trace"
)

func main() {
	var (
		threadsArg = flag.String("threads", "", "workload profile names, colon- or comma-separated (e.g. gcc:mcf:swim:eon)")
		traceArg   = flag.String("trace", "", "comma-separated trace files (alternative to -threads)")
		fArg       = flag.Float64("F", 0, "target fairness (0 disables enforcement)")
		timeshare  = flag.Float64("timeshare", 0, "time-share cycle quota (baseline policy)")
		policyArg  = flag.String("policy", "", "switch policy by name: "+strings.Join(core.PolicyNames(), ", ")+" (overrides -F/-timeshare selection)")
		weightsArg = flag.String("weights", "", "comma-separated per-thread grant weights for -policy wfq")
		cpmSplit   = flag.Float64("cpm-split", 0, "grouped-fairness CPM classification boundary (0 = adaptive midpoint)")
		missyWt    = flag.Float64("missy-weight", 0, "grouped-fairness missy-group grant weight (0 = default 2)")
		friendWt   = flag.Float64("friendly-weight", 0, "grouped-fairness friendly-group grant weight (0 = default 1)")
		minAggFrac = flag.Float64("min-agg-frac", 0, "malthusian demotion threshold as a fraction of peak aggregate IPC (0 = default 0.9)")
		probeEvery = flag.Int("probe-every", 0, "malthusian reactivation probe period in Δ windows (0 = default 8)")
		ref        = flag.Bool("ref", false, "also run single-thread references and report fairness")
		pauseSw    = flag.Bool("pause-switch", false, "switch threads on retired PAUSE hints")
		measured   = flag.Bool("measured-misslat", false, "estimate Miss_lat from observed stalls")
		samples    = flag.Bool("samples", false, "dump the Δ-window sampling series")
		smooth     = flag.Float64("smooth", 0, "EWMA alpha for IPM/CPM estimates (0 = paper behaviour)")
		countAll   = flag.Bool("countall", false, "count all demand misses instead of switch-causing ones")
		l1switch   = flag.Bool("l1-switch", false, "also switch on unresolved L1 misses (§6 extension)")
		prefetch   = flag.Int("prefetch", 0, "next-line L2 prefetch degree (0 = off)")
		jsonOut    = flag.Bool("json", false, "emit the result as JSON")
		stallCap   = flag.Uint64("stall-cycles", 0, "abort a run making no forward progress for this many cycles (0 = default watchdog)")
		cycleRef   = flag.Bool("cycle-by-cycle", false, "disable the idle fast-forward and execute every cycle (reference engine)")
		pprofOut   = flag.String("pprof", "", "write a CPU profile of the simulation to this file")
		traceOut   = flag.String("trace-events", "", "write a Chrome trace_event JSON of the run to this file (open in chrome://tracing or Perfetto); forces a fresh simulation, bypassing the result cache")
		traceCSV   = flag.String("trace-csv", "", "write the raw controller event stream as CSV to this file; forces a fresh simulation, bypassing the result cache")
		obsMetrics = flag.Bool("obs-metrics", false, "dump the observability metrics registry (switch causes, skip cycles, pipeline and cache counters) to stderr on exit")
		modelOut   = flag.Bool("model", false, "answer from the calibrated analytical model instead of simulating (honors -threads, -F, -timeshare, -json)")
		calFile    = flag.String("calibration", "", "calibration table for -model (default: profile-derived fit with wide error bars)")
		calOut     = flag.String("calibrate", "", "fit a calibration table against the engine and write it to this file (uses -threads a,b as the replay pair, or the full matrix)")
		rf         = cli.Register(flag.CommandLine, "quick", cli.CacheDir|cli.Metrics|cli.Timeout)
	)
	flag.Parse()
	if *calOut == "" && !*modelOut && *threadsArg == "" && *traceArg == "" {
		flag.Usage()
		os.Exit(2)
	}

	// SIGINT/SIGTERM cancel the run between execution slices; finished
	// simulations stay in the cache, and the cache dir is marked so a
	// rerun knows it is resuming. A second signal kills immediately.
	rf.Run("soesim", func(s *cli.Session) error {
		switch {
		case *calOut != "":
			return runCalibrate(s, *calOut, *threadsArg)
		case *modelOut:
			return runModel(*threadsArg, *fArg, *timeshare, *calFile, *jsonOut)
		}
		machine := sim.DefaultMachine()
		switch {
		case *policyArg != "":
			weights, err := cli.ParseFloats(*weightsArg)
			if err != nil {
				return fmt.Errorf("-weights: %w", err)
			}
			p, err := core.PolicyByName(*policyArg, core.PolicyParams{
				F: *fArg, QuotaCycles: *timeshare, Weights: weights,
				CPMSplit: *cpmSplit, MissyWeight: *missyWt, FriendWt: *friendWt,
				MinAggFrac: *minAggFrac, ProbeEvery: *probeEvery,
			})
			if err != nil {
				return err
			}
			machine.Controller.Policy = p
		case *timeshare > 0:
			machine.Controller.Policy = core.TimeShare{QuotaCycles: *timeshare}
		default:
			machine.Controller.Policy = experiments.PolicyFor(*fArg)
		}
		machine.Controller.SwitchOnPause = *pauseSw
		machine.Controller.MeasureMissLat = *measured
		machine.Controller.SmoothAlpha = *smooth
		machine.Controller.CountAllMisses = *countAll
		machine.Controller.SwitchOnL1Miss = *l1switch
		machine.Memory.PrefetchDegree = *prefetch

		specs, err := buildThreads(*threadsArg, *traceArg)
		if err != nil {
			return err
		}
		if *obsMetrics {
			defer func() {
				fmt.Fprintln(os.Stderr, "soesim: observability registry:")
				s.Cache.Observability().WriteTo(os.Stderr)
			}()
		}
		if *pprofOut != "" {
			f, err := os.Create(*pprofOut)
			if err != nil {
				return err
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				f.Close()
				return err
			}
			defer func() {
				pprof.StopCPUProfile()
				f.Close()
			}()
		}

		engine := "fast-forward"
		if *cycleRef {
			engine = "cycle-by-cycle"
		}
		spec := sim.Spec{
			Machine: machine, Threads: specs, Scale: s.Scale,
			Watchdog: s.Watchdog, Engine: engine,
		}
		spec.Watchdog.StallCycles = *stallCap
		// A live tracer requires an actual simulation: cache hits skip the
		// run and record nothing, so tracing runs take the cache's fresh
		// path, which still counts the run in -metrics.
		tracing := *traceOut != "" || *traceCSV != ""
		var tracer *obs.Tracer
		run := s.Cache.RunSpecContext
		if tracing {
			tracer = obs.NewTracer(0)
			spec.Obs = &obs.Observer{Trace: tracer, Metrics: s.Cache.Observability()}
			run = s.Cache.RunSpecFresh
		}
		res, err := run(s.Ctx, spec)
		if err != nil {
			return err
		}
		if res.Truncated {
			fmt.Fprintf(os.Stderr, "soesim: WARNING: run truncated at MaxCycles=%d before reaching Measure=%d; IPC is approximate\n",
				s.Scale.MaxCycles, s.Scale.Measure)
		}
		if tracing {
			if err := writeTraces(tracer, specs, *traceOut, *traceCSV); err != nil {
				return err
			}
		}

		withRef := *ref && len(specs) > 1
		if *jsonOut {
			var ipcST, sp []float64
			if withRef {
				if ipcST, sp, err = experiments.RefSpeedups(s.Ctx, s.Cache, spec, res); err != nil {
					return err
				}
			}
			return emitJSON(machine.Controller.Policy.Name(), res, ipcST, sp)
		}

		fmt.Printf("policy: %s   cycles: %d   total IPC: %.3f\n",
			machine.Controller.Policy.Name(), res.WallCycles, res.IPCTotal)
		t := stats.NewTable("thread", "instrs", "run cycles", "misses", "IPC", "IPM", "est IPC_ST", "visits", "instr/visit")
		for _, tr := range res.Threads {
			t.AddRow(tr.Name,
				fmt.Sprintf("%d", tr.Counters.Instrs),
				fmt.Sprintf("%d", tr.Counters.Cycles),
				fmt.Sprintf("%d", tr.Counters.Misses),
				fmt.Sprintf("%.3f", tr.IPC),
				fmt.Sprintf("%.0f", tr.IPM),
				fmt.Sprintf("%.3f", tr.EstIPCST),
				fmt.Sprintf("%d", tr.Visits),
				fmt.Sprintf("%.0f", tr.AvgVisit))
		}
		t.WriteTo(os.Stdout)
		sw := res.Switches
		fmt.Printf("switches: miss=%d quota=%d maxq=%d pause=%d (forced/1k cycles: %.2f)\n",
			sw.Miss, sw.Quota, sw.MaxQuota, sw.Pause, res.ForcedPer1k())
		if *samples {
			dumpSamples(os.Stdout, res)
		}

		if withRef {
			ipcST, sp, err := experiments.RefSpeedups(s.Ctx, s.Cache, spec, res)
			if err != nil {
				return err
			}
			fmt.Println()
			for i, ts := range specs {
				fmt.Printf("%-10s IPC_ST=%.3f speedup=%.3f\n", ts.Profile.Name, ipcST[i], sp[i])
			}
			fmt.Printf("fairness (Eq. 4): %.3f   weighted speedup: %.3f   harmonic: %.3f\n",
				core.FairnessMetric(sp), core.WeightedSpeedup(sp), core.HarmonicFairness(sp))
		}
		return nil
	})
}

func buildThreads(threadsArg, traceArg string) ([]sim.ThreadSpec, error) {
	var specs []sim.ThreadSpec
	if threadsArg != "" {
		// Colon or comma lists; repeated benchmarks get the paper's
		// 100k-instruction start offset per extra copy.
		var err error
		if specs, err = experiments.ParseMix(threadsArg); err != nil {
			return nil, err
		}
	}
	if traceArg != "" {
		for _, path := range strings.Split(traceArg, ",") {
			f, err := os.Open(strings.TrimSpace(path))
			if err != nil {
				return nil, err
			}
			tr, err := trace.Decode(f)
			f.Close()
			if err != nil {
				return nil, err
			}
			events := make([]pipeline.InjectedStall, len(tr.Events))
			for j, e := range tr.Events {
				events[j] = pipeline.InjectedStall{AtInstr: e.AtInstr, StallCycles: uint64(e.StallCycles)}
			}
			specs = append(specs, sim.ThreadSpec{
				Profile:  tr.Profile,
				Slot:     int(tr.Checkpoint.Slot),
				StartSeq: tr.Checkpoint.StartSeq,
				Events:   events,
			})
		}
	}
	return specs, nil
}

// writeTraces exports the recorded event stream. The ring buffer keeps
// the most recent events; if earlier ones were evicted the export is a
// suffix of the run — the drop count is embedded in the files
// themselves (Chrome otherData / CSV comment) and warned about on
// stderr, so a truncated trace can never pass for a complete one.
func writeTraces(tracer *obs.Tracer, specs []sim.ThreadSpec, jsonPath, csvPath string) error {
	if d := tracer.Dropped(); d > 0 {
		fmt.Fprintf(os.Stderr, "soesim: WARNING: trace ring dropped %d oldest events (capacity %d); the export is the most recent window of the run, not a complete trace\n",
			d, tracer.Len())
	}
	events := tracer.Events()
	names := make([]string, len(specs))
	for i, ts := range specs {
		names[i] = ts.Profile.Name
	}
	meta := obs.MetaFor(tracer, names)
	write := func(path string, enc func(*os.File) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := enc(f); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "soesim: wrote %d events to %s\n", len(events), path)
		return nil
	}
	if jsonPath != "" {
		if err := write(jsonPath, func(f *os.File) error {
			return obs.WriteChromeTrace(f, events, meta)
		}); err != nil {
			return err
		}
	}
	if csvPath != "" {
		if err := write(csvPath, func(f *os.File) error {
			return obs.WriteCSV(f, events, meta)
		}); err != nil {
			return err
		}
	}
	return nil
}
