package perf

import (
	"context"
	"fmt"
	"slices"

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

// MeasureObsOverhead times ObsOverheadSpec in paired rounds (see
// pairedRounds) of two runs — one with a live tracer plus registry
// attached, one with observability detached (Spec.Obs nil, the
// production default) — and returns the median of the per-round on/off
// wall-time ratios, which it also records in Report.ObsOverhead. The
// best entry of each arm is appended to the report, under engines
// "obs-off" and "obs-on".
func MeasureObsOverhead(ctx context.Context, r *Report, scale sim.Scale, rounds int, progress func(string)) (float64, error) {
	if rounds < 1 {
		rounds = 3
	}
	ratio, runs, err := pairedRounds(ctx, rounds, [2]string{"obs-on", "obs-off"}, func(mode string) (Entry, error) {
		spec := ObsOverheadSpec(scale)
		if mode == "obs-on" {
			spec.Obs = &obs.Observer{Trace: obs.NewTracer(0), Metrics: obs.NewRegistry()}
		}
		e, err := measureSpec(ctx, obsScenarioName, mode, spec)
		if err == nil && mode == "obs-on" && spec.Obs.Trace.Len() == 0 {
			err = fmt.Errorf("perf: obs-on run traced no events; measurement is vacuous")
		}
		return e, err
	})
	if err != nil {
		return 0, err
	}
	on, off := slices.MinFunc(runs[0], bySeconds), slices.MinFunc(runs[1], bySeconds)
	r.Entries = append(r.Entries, off, on)
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
