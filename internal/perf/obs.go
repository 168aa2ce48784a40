package perf

import (
	"context"
	"fmt"
	"sort"

	"soemt/internal/core"
	"soemt/internal/obs"
	"soemt/internal/sim"
	"soemt/internal/workload"
)

// obsScenarioName labels the observability-overhead measurement in
// reports and in Report.ObsOverhead.
const obsScenarioName = "obs-overhead-gcc-eon"

// ObsOverheadSpec returns the spec the observability-overhead
// measurement runs: the gcc:eon pair under full F=1 enforcement on the
// production (default fast-forward) engine. The pair switches, samples
// and recomputes quotas constantly, so it exercises every event site the
// tracer and registry hook; a miss-bound pair would instead spend its
// time inside skipIdle where observability costs nothing.
func ObsOverheadSpec(scale sim.Scale) sim.Spec {
	m := sim.DefaultMachine()
	m.Controller.Policy = core.Fairness{F: 1}
	return sim.Spec{
		Machine: m,
		Threads: []sim.ThreadSpec{
			{Profile: workload.MustByName("gcc"), Slot: 0},
			{Profile: workload.MustByName("eon"), Slot: 1},
		},
		Scale: scale,
	}
}

// MeasureObsOverhead times ObsOverheadSpec in rounds of two back-to-back
// runs — one with observability detached (Spec.Obs nil, the production
// default), one with a live tracer plus registry attached — and returns
// the median of the per-round on/off wall-time ratios, which it also
// records in Report.ObsOverhead. The arm that runs first alternates
// from round to round. Pairing the arms within a round means a host
// that changes speed, or load from other processes, moves both sides
// of a ratio alike. The best entry of each arm is appended to the
// report, under engines "obs-off" and "obs-on".
func MeasureObsOverhead(ctx context.Context, r *Report, scale sim.Scale, rounds int, progress func(string)) (float64, error) {
	if rounds < 1 {
		rounds = 3
	}
	best := map[string]Entry{}
	ratios := make([]float64, 0, rounds)
	for round := 0; round < rounds; round++ {
		modes := []string{"obs-off", "obs-on"}
		if round%2 == 1 {
			modes[0], modes[1] = modes[1], modes[0]
		}
		secs := map[string]float64{}
		for _, mode := range modes {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			spec := ObsOverheadSpec(scale)
			if mode == "obs-on" {
				spec.Obs = &obs.Observer{Trace: obs.NewTracer(0), Metrics: obs.NewRegistry()}
			}
			e, err := Measure(obsScenarioName, mode, func() (uint64, uint64, error) {
				res, err := sim.RunContext(ctx, spec)
				if err != nil {
					return 0, 0, err
				}
				var instrs uint64
				for _, th := range res.Threads {
					instrs += th.Counters.Instrs
				}
				return res.WallCycles, instrs, nil
			})
			if err != nil {
				return 0, err
			}
			if mode == "obs-on" && spec.Obs.Trace.Len() == 0 {
				return 0, fmt.Errorf("perf: obs-on run traced no events; measurement is vacuous")
			}
			secs[mode] = e.Seconds
			if b, ok := best[mode]; !ok || e.Seconds < b.Seconds {
				best[mode] = e
			}
		}
		if secs["obs-off"] <= 0 {
			// A ~0s obs-off wall time would make the ratio +Inf/NaN, which
			// encoding/json refuses to marshal — the whole report write
			// would fail long after the measurement ran.
			return 0, fmt.Errorf("perf: obs-off run measured no wall time; overhead ratio undefined")
		}
		ratios = append(ratios, secs["obs-on"]/secs["obs-off"])
	}
	off, on := best["obs-off"], best["obs-on"]
	r.Entries = append(r.Entries, off, on)
	sort.Float64s(ratios)
	ratio := ratios[len(ratios)/2]
	if r.ObsOverhead == nil {
		r.ObsOverhead = map[string]float64{}
	}
	r.ObsOverhead[obsScenarioName] = ratio
	if progress != nil {
		progress(fmt.Sprintf("%-28s obs on/off %.3fx (median of %d paired rounds; best %.3fs vs %.3fs)",
			obsScenarioName, ratio, rounds, on.Seconds, off.Seconds))
	}
	return ratio, nil
}
