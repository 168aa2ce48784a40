// Command soesweep runs parameter-sensitivity sweeps on the SOE
// simulator: the fairness target F, the memory latency, the switch
// drain cost, the sampling period Δ, and thread-count scaling.
//
// Examples:
//
//	soesweep -sweep F -pair gcc:eon -points 9
//	soesweep -sweep misslat -pair gcc:eon -values 100,200,300,600
//	soesweep -sweep drain -pair swim:gzip -values 2,6,12,24,48
//	soesweep -sweep delta -pair gcc:eon -values 50000,250000,1000000
//	soesweep -sweep threads -bench swim -max 4
//	soesweep -sweep threads -threads gcc:eon:gzip:crafty -policy grouped-fairness -F 1
//
// Output is an aligned table; -csv switches to CSV for plotting.
// With -cache-dir every simulation result is persisted under a
// content-addressed fingerprint, so repeated sweeps over the same
// configuration are served from disk bit-identically; -metrics prints
// run and cache-hit counters to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"soemt/internal/cli"
	"soemt/internal/core"
	"soemt/internal/experiments"
	"soemt/internal/sim"
	"soemt/internal/stats"
	"soemt/internal/workload"
)

func main() {
	var (
		sweep   = flag.String("sweep", "F", "parameter to sweep: F, misslat, drain, delta, threads")
		pair    = flag.String("pair", "gcc:eon", "two workloads a:b for pair sweeps")
		bench   = flag.String("bench", "swim", "workload for -sweep threads")
		threads = flag.String("threads", "", "colon-separated mix for -sweep threads (prefix sweep N=2..len under -policy; overrides -bench)")
		policy  = flag.String("policy", "", "switch policy by name: "+strings.Join(core.PolicyNames(), ", ")+" (overrides -F selection)")
		points  = flag.Int("points", 9, "number of F points for -sweep F")
		values  = flag.String("values", "", "comma-separated values for misslat/drain/delta sweeps")
		maxThr  = flag.Int("max", 4, "maximum thread count for -sweep threads")
		fArg    = flag.Float64("F", 0.5, "fairness target for non-F sweeps (0 = event-only)")
		csv     = flag.Bool("csv", false, "emit CSV instead of a table")
		rf      = cli.Register(flag.CommandLine, "tiny", cli.CacheDir|cli.Metrics|cli.Timeout|cli.Heartbeat)
	)
	flag.Parse()

	// SIGINT/SIGTERM cancel the sweep between execution slices; the
	// rows completed so far are still flushed (marked incomplete), and
	// with -cache-dir a rerun resumes from the finished points.
	rf.Run("soesweep", func(s *cli.Session) error {
		scalar := func(param, def string) (*stats.Table, error) {
			if *values != "" {
				def = *values
			}
			vals, err := cli.ParseFloats(def)
			if err != nil {
				return nil, err
			}
			return sweepScalar(s, *pair, param, vals, *fArg)
		}
		var tbl *stats.Table
		var err error
		switch *sweep {
		case "F":
			tbl, err = sweepF(s, *pair, *points)
		case "misslat":
			tbl, err = scalar("misslat", "100,200,300,600")
		case "drain":
			tbl, err = scalar("drain", "2,6,12,24,48")
		case "delta":
			tbl, err = scalar("delta", "50000,250000,1000000")
		case "threads":
			if *threads != "" {
				tbl, err = sweepMix(s, *threads, *policy, *fArg)
			} else {
				tbl, err = sweepThreads(s, *bench, *maxThr, *fArg)
			}
		default:
			err = fmt.Errorf("unknown sweep %q", *sweep)
		}
		if err != nil && !cli.Interrupted(s.Ctx, err) {
			return err
		}
		// The table is flushed once, complete or (interrupted) partial.
		// A signal landing during the final flush still ends the run
		// with exit 130 (see TestInterruptDuringFinalFlush).
		if tbl != nil {
			if d, _ := time.ParseDuration(os.Getenv("SOESWEEP_TEST_FLUSH_DELAY")); d > 0 {
				// Test hook: announce the flush window and hold it open so the
				// acceptance test can land a signal inside it deterministically.
				fmt.Fprintln(os.Stderr, "soesweep: flushing")
				time.Sleep(d)
			}
			if *csv {
				fmt.Print(tbl.CSV())
			} else {
				tbl.WriteTo(os.Stdout)
			}
		}
		if err != nil {
			s.Hint = "partial sweep flushed — rerun with the same -cache-dir to resume"
			if *csv {
				fmt.Println("# interrupted: sweep incomplete")
				s.Hint = ""
			}
		}
		return err
	})
}

// pairSpec is the a:b pair on machine m, placed as soesim places the
// same mix (a same-benchmark pair's second copy starts
// experiments.MixOffset instructions in).
func pairSpec(s *cli.Session, pair string, m sim.MachineConfig) (sim.Spec, error) {
	p, err := experiments.ParsePair(pair)
	if err != nil {
		return sim.Spec{}, err
	}
	return sim.Spec{Machine: m, Threads: p.Threads(experiments.MixOffset), Scale: s.Scale, Watchdog: s.Watchdog}, nil
}

// buildPolicy resolves -policy (zoo names, PolicyByName defaults) or
// falls back to the seed -F selection.
func buildPolicy(name string, f float64) (core.Policy, error) {
	if name == "" {
		return experiments.PolicyFor(f), nil
	}
	return core.PolicyByName(name, core.PolicyParams{F: f})
}

// sweepMix sweeps thread count over prefixes of a heterogeneous mix
// under one policy, reporting the min-over-pairs fairness metric at
// each N — the N-thread sweep the hypotheses harness documents
// (hypotheses/FINDINGS_grouped-fairness.md).
func sweepMix(s *cli.Session, mix, policyName string, f float64) (*stats.Table, error) {
	specs, err := experiments.ParseMix(mix)
	if err != nil {
		return nil, err
	}
	if len(specs) < 2 {
		return nil, fmt.Errorf("-threads needs at least two workloads, got %q", mix)
	}
	pol, err := buildPolicy(policyName, f)
	if err != nil {
		return nil, err
	}
	tbl := stats.NewTable("threads", "mix", "total IPC", "fairness", "min speedup", "forced/1k")
	for n := 2; n <= len(specs); n++ {
		m := sim.DefaultMachine()
		m.Controller.Policy = pol
		res, sp, err := experiments.RunMix(s.Ctx, s.Cache,
			sim.Spec{Machine: m, Threads: specs[:n], Scale: s.Scale, Watchdog: s.Watchdog})
		if err != nil {
			return tbl, err
		}
		minSp := sp[0]
		names := specs[0].Profile.Name
		for i := 1; i < n; i++ {
			if sp[i] < minSp {
				minSp = sp[i]
			}
			names += ":" + specs[i].Profile.Name
		}
		tbl.AddRow(fmt.Sprintf("%d", n), names,
			fmt.Sprintf("%.3f", res.IPCTotal),
			fmt.Sprintf("%.3f", core.FairnessMetric(sp)),
			fmt.Sprintf("%.3f", minSp),
			fmt.Sprintf("%.2f", res.ForcedPer1k()))
	}
	return tbl, nil
}

// The sweep functions return the partially built table alongside any
// error, so an interrupted sweep can still flush its completed rows.
func sweepF(s *cli.Session, pair string, points int) (*stats.Table, error) {
	spec, err := pairSpec(s, pair, sim.DefaultMachine())
	if err != nil {
		return nil, err
	}
	if points < 2 {
		points = 2
	}
	tbl := stats.NewTable("F", "IPC", "fairness", "speedupA", "speedupB", "forced/1k")
	// The points differ only in their policy: one sibling scope lets
	// them share the warmed machine and, where quotas agree, results.
	spec.Siblings = new(sim.Siblings)
	for i := 0; i < points; i++ {
		f := float64(i) / float64(points-1)
		spec.Machine.Controller.Policy = experiments.PolicyFor(f)
		res, sp, err := experiments.RunMix(s.Ctx, s.Cache, spec)
		if err != nil {
			return tbl, err
		}
		tbl.AddRow(fmt.Sprintf("%.3f", f),
			fmt.Sprintf("%.3f", res.IPCTotal),
			fmt.Sprintf("%.3f", core.FairnessMetric(sp)),
			fmt.Sprintf("%.3f", sp[0]), fmt.Sprintf("%.3f", sp[1]),
			fmt.Sprintf("%.2f", res.ForcedPer1k()))
	}
	return tbl, nil
}

// sweepScalar sweeps one machine parameter of the pair. Each point's
// references run on that point's memory system (experiments.RefSpeedups),
// so a miss-latency point divides by single-thread IPC at its own
// latency.
func sweepScalar(s *cli.Session, pair, param string, values []float64, f float64) (*stats.Table, error) {
	tbl := stats.NewTable(param, "IPC", "fairness", "switches/1k", "forced/1k")
	for _, v := range values {
		m := sim.DefaultMachine()
		m.Controller.Policy = experiments.PolicyFor(f)
		switch param {
		case "misslat":
			m.Memory.MemLatency = int(v)
			m.Controller.MissLat = v
		case "drain":
			m.Controller.DrainCycles = uint64(v)
		case "delta":
			m.Controller.Delta = uint64(v)
			if q := uint64(v) / 5; q < m.Controller.MaxCyclesQuota {
				m.Controller.MaxCyclesQuota = q
			}
		default:
			return nil, fmt.Errorf("unknown scalar parameter %q", param)
		}
		spec, err := pairSpec(s, pair, m)
		if err != nil {
			return nil, err
		}
		res, sp, err := experiments.RunMix(s.Ctx, s.Cache, spec)
		if err != nil {
			return tbl, err
		}
		tbl.AddRow(fmt.Sprintf("%.0f", v),
			fmt.Sprintf("%.3f", res.IPCTotal),
			fmt.Sprintf("%.3f", core.FairnessMetric(sp)),
			fmt.Sprintf("%.2f", float64(res.Switches.Total())/float64(res.WallCycles)*1000),
			fmt.Sprintf("%.2f", res.ForcedPer1k()))
	}
	return tbl, nil
}

// sweepThreads scales the number of copies of one workload from 1 to
// max (Eickemeyer et al.: SOE throughput saturates around three
// threads).
func sweepThreads(s *cli.Session, bench string, max int, f float64) (*stats.Table, error) {
	prof, ok := workload.ByName(bench)
	if !ok {
		return nil, fmt.Errorf("unknown profile %q", bench)
	}
	if max < 1 {
		max = 1
	}
	tbl := stats.NewTable("threads", "total IPC", "speedup vs 1", "switches/1k")
	var base float64
	for n := 1; n <= max; n++ {
		m := sim.DefaultMachine()
		m.Controller.Policy = experiments.PolicyFor(f)
		var threads []sim.ThreadSpec
		for i := 0; i < n; i++ {
			p := prof
			p.Seed += uint64(i) * 7919
			threads = append(threads, sim.ThreadSpec{Profile: p, Slot: i})
		}
		res, err := s.Cache.RunSpecContext(s.Ctx, sim.Spec{Machine: m, Threads: threads, Scale: s.Scale, Watchdog: s.Watchdog})
		if err != nil {
			return tbl, err
		}
		if n == 1 {
			base = res.IPCTotal
		}
		tbl.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%.3f", res.IPCTotal),
			fmt.Sprintf("%.2fx", res.IPCTotal/base),
			fmt.Sprintf("%.2f", float64(res.Switches.Total())/float64(res.WallCycles)*1000))
	}
	return tbl, nil
}
