package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"soemt/internal/model"
	"soemt/internal/trace"
	"soemt/internal/workload"
	"soemt/internal/workload/spec"
)

// Trace-to-spec calibration: given a recorded LIT-like trace of an
// unknown workload, fit a synthetic workload.Profile whose observable
// marginals — IPM (instructions/miss), no-miss IPC and CPM
// (cycles/miss) — match the trace's, and a spec.Arrival process whose
// first two inter-arrival moments match the trace's event gaps. The
// result round-trips: generating traffic from the fitted spec
// reproduces the source workload's behaviour within the documented
// tolerances below, without shipping the source profile anywhere.
//
// The profile fit is a short fixed-point iteration on the two knobs
// that dominate the marginals:
//
//	PCold     -> miss rate     (IPM ~ 1/(FracLoad·PCold))
//	ChainFrac -> ILP           (IPC ~ peak/(1 + k·ChainFrac))
//
// Each iteration runs the candidate single-thread through the runner's
// content-addressed cache (so re-fitting the same trace is free) and
// applies a multiplicative correction derived from inverting the two
// heuristics. Convergence is typically 2-4 iterations; the loop is
// capped at fitMaxIters.

// Fit tolerances: the fitted profile must reproduce the source
// marginals this closely (relative error) for Report.Within to hold.
// IPM is the best-conditioned knob; CPM compounds the errors of the
// other two, so it gets the widest band.
const (
	TolIPM       = 0.20
	TolIPCNoMiss = 0.10
	TolCPM       = 0.25
)

// fitMaxIters caps the fixed-point iteration; each iteration is one
// cached single-thread simulation.
const fitMaxIters = 6

// Marginals are the paper's per-thread workload descriptors measured
// from a single-thread run (§2: Eq. 1 terms).
type Marginals struct {
	IPM       float64 // instructions per L2 miss
	IPCNoMiss float64 // IPC with misses factored out
	CPM       float64 // compute cycles per miss (IPM / IPCNoMiss)
	IPC       float64 // raw single-thread IPC (for reporting)
}

// FitMetric is one marginal's target-vs-fitted comparison.
type FitMetric struct {
	Name      string
	Target    float64
	Fitted    float64
	RelErr    float64
	Tolerance float64
}

// Ok reports whether the metric landed inside its tolerance.
func (m FitMetric) Ok() bool { return m.RelErr <= m.Tolerance }

// FitReport is the statistical summary of a calibration.
type FitReport struct {
	Metrics []FitMetric
	Iters   int // simulations spent on the profile fit
	// Arrival moments measured from the trace events (instruction
	// units); zero EventCount means the defaults were assumed.
	EventCount int
	GapMean    float64
	GapCV      float64
}

// Within reports whether every marginal landed inside its tolerance.
func (r FitReport) Within() bool {
	for _, m := range r.Metrics {
		if !m.Ok() {
			return false
		}
	}
	return true
}

// String renders the report as a small fixed-width table.
func (r FitReport) String() string {
	out := fmt.Sprintf("fit: %d iterations, %d trace events (gap mean %.0f, cv %.2f)\n",
		r.Iters, r.EventCount, r.GapMean, r.GapCV)
	for _, m := range r.Metrics {
		status := "ok"
		if !m.Ok() {
			status = "MISS"
		}
		out += fmt.Sprintf("  %-10s target %8.3f fitted %8.3f relerr %5.1f%% (tol %4.0f%%) %s\n",
			m.Name, m.Target, m.Fitted, 100*m.RelErr, 100*m.Tolerance, status)
	}
	return out
}

// TraceFit is the outcome of fitting a synthetic spec to a trace.
type TraceFit struct {
	Source  Marginals        // marginals measured from the trace's own profile
	Fitted  workload.Profile // synthetic profile reproducing them
	Arrival spec.Arrival     // process matching the event gap moments
	Report  FitReport
}

// Spec packages the fit as a runnable workload spec: one client
// replaying the fitted profile as a single-thread bench at the given
// request rate, with the fitted arrival process. The profile travels
// inline, so the spec is self-contained (matrix expansion only — see
// Spec.Replayable).
func (tf *TraceFit) Spec(name string, rate float64, duration time.Duration) *spec.Spec {
	p := tf.Fitted
	p.Name = "" // the map key names it
	return &spec.Spec{
		Name:     name,
		Seed:     tf.Fitted.Seed,
		Scale:    "quick",
		Duration: duration,
		Profiles: map[string]workload.Profile{"fitted": p},
		Clients: []spec.Client{{
			Name:      "replay",
			Count:     1,
			Rate:      rate,
			Arrival:   tf.Arrival,
			Workloads: []spec.Entry{{Bench: "fitted", Weight: 1}},
		}},
	}
}

// measureProfile runs prof single-threaded through the cache and
// extracts its marginals by inverting Eq. 1 on the counters.
func measureProfile(ctx context.Context, r *Runner, prof workload.Profile) (Marginals, error) {
	res, err := r.cache.RunSpecContext(ctx, r.stSpec(prof))
	if err != nil {
		return Marginals{}, err
	}
	c := res.Threads[0].Counters
	tp, err := model.FitThread(prof.Name, c.Instrs, c.Cycles, c.Misses, r.Opts.Machine.Controller.MissLat)
	if err != nil {
		return Marginals{}, err
	}
	return Marginals{
		IPM:       tp.IPM,
		IPCNoMiss: tp.IPCNoMiss,
		CPM:       tp.IPM / tp.IPCNoMiss,
		IPC:       res.Threads[0].IPC,
	}, nil
}

// fitTemplate is the synthetic starting profile. Only PCold and
// ChainFrac are iterated; everything else is a representative mix with
// enough loads that PCold has authority over the miss rate.
func fitTemplate(seed uint64) workload.Profile {
	return workload.Profile{
		Name: "fitted", Seed: seed,
		FracLoad: 0.30, FracStore: 0.10, FracBranch: 0.15,
		ChainFrac: 0.3, DepWindow: 8,
		HotBytes: 16 << 10, WarmBytes: 128 << 10, ColdBytes: 64 << 20,
		PWarm: 0.10, PCold: 0.05,
		StrideFrac: 0.5, LoopLen: 4096,
		TakenBias: 0.6, NoiseFrac: 0.02,
	}
}

func clampRange(v, lo, hi float64) float64 { return math.Min(hi, math.Max(lo, v)) }

// FitTrace fits a synthetic profile and arrival process to the trace.
// All simulations go through r's cache; the trace's own profile is run
// once to establish the target marginals, then the candidate is
// iterated until every marginal is inside tolerance or fitMaxIters is
// spent. The returned fit carries a report either way — callers decide
// whether a miss is fatal via Report.Within.
func FitTrace(ctx context.Context, r *Runner, t *trace.Trace) (*TraceFit, error) {
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("experiments: fit: %w", err)
	}
	target, err := measureProfile(ctx, r, t.Profile)
	if err != nil {
		return nil, fmt.Errorf("experiments: fit: measuring source trace: %w", err)
	}

	// Seed the iteration by inverting the heuristics at the target.
	cand := fitTemplate(t.Profile.Seed ^ 0xF17)
	cand.PCold = clampRange(1/(target.IPM*cand.FracLoad), 1e-5, 1-cand.PWarm)
	cand.ChainFrac = clampRange((ilpPeak/target.IPCNoMiss-1)/ilpSlope, 0, 1)

	var got Marginals
	iters := 0
	for ; iters < fitMaxIters; iters++ {
		got, err = measureProfile(ctx, r, cand)
		if err != nil {
			return nil, fmt.Errorf("experiments: fit: iteration %d: %w", iters, err)
		}
		if relErr(got.IPM, target.IPM) <= TolIPM*0.5 &&
			relErr(got.IPCNoMiss, target.IPCNoMiss) <= TolIPCNoMiss*0.5 &&
			relErr(got.CPM, target.CPM) <= TolCPM*0.5 {
			iters++
			break
		}
		// Multiplicative corrections from the two heuristics: misses
		// scale with PCold (so IPM scales with 1/PCold), and
		// 1 + slope·ChainFrac scales with 1/IPC.
		cand.PCold = clampRange(cand.PCold*(got.IPM/target.IPM), 1e-5, 1-cand.PWarm)
		newChain := (1 + ilpSlope*cand.ChainFrac) * got.IPCNoMiss / target.IPCNoMiss
		cand.ChainFrac = clampRange((newChain-1)/ilpSlope, 0, 1)
	}

	arrival, count, mean, cv := fitArrival(t.Events)
	report := FitReport{
		Metrics: []FitMetric{
			{Name: "ipm", Target: target.IPM, Fitted: got.IPM, RelErr: relErr(got.IPM, target.IPM), Tolerance: TolIPM},
			{Name: "ipc_nomiss", Target: target.IPCNoMiss, Fitted: got.IPCNoMiss, RelErr: relErr(got.IPCNoMiss, target.IPCNoMiss), Tolerance: TolIPCNoMiss},
			{Name: "cpm", Target: target.CPM, Fitted: got.CPM, RelErr: relErr(got.CPM, target.CPM), Tolerance: TolCPM},
		},
		Iters:      iters,
		EventCount: count,
		GapMean:    mean,
		GapCV:      cv,
	}
	return &TraceFit{Source: target, Fitted: cand, Arrival: arrival, Report: report}, nil
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// fitArrival picks the arrival process matching the trace's event-gap
// moments by method of moments on the coefficient of variation:
//
//	CV ≈ 1            poisson (memoryless)
//	CV > 1            weibull, shape solved from CV (heavy-tailed)
//	CV < 1            gamma, shape = 1/CV² (smoothed)
//
// Fewer than 3 events cannot support a second moment; the poisson
// default is returned with EventCount recording how little evidence
// backed it.
func fitArrival(events []trace.Event) (a spec.Arrival, count int, mean, cv float64) {
	var gaps []float64
	prev := uint64(0)
	for i, e := range events {
		if i == 0 {
			prev = e.AtInstr
			continue
		}
		gaps = append(gaps, float64(e.AtInstr-prev))
		prev = e.AtInstr
	}
	count = len(events)
	if len(gaps) < 2 {
		return spec.Arrival{Process: spec.ProcPoisson}, count, 0, 0
	}
	for _, g := range gaps {
		mean += g
	}
	mean /= float64(len(gaps))
	if mean <= 0 {
		return spec.Arrival{Process: spec.ProcPoisson}, count, mean, 0
	}
	var ss float64
	for _, g := range gaps {
		d := g - mean
		ss += d * d
	}
	cv = math.Sqrt(ss/float64(len(gaps)-1)) / mean

	const band = 0.15 // CV within 1±band is indistinguishable from poisson
	switch {
	case math.Abs(cv-1) <= band:
		a = spec.Arrival{Process: spec.ProcPoisson}
	case cv > 1:
		a = spec.Arrival{Process: spec.ProcWeibull, Shape: weibullShapeFromCV(cv)}
	default:
		a = spec.Arrival{Process: spec.ProcGamma, Shape: 1 / (cv * cv)}
	}
	return a, count, mean, cv
}

// weibullShapeFromCV inverts the Weibull CV — strictly decreasing in
// the shape — by bisection over the heavy-tailed range.
func weibullShapeFromCV(cv float64) float64 {
	lo, hi := 0.15, 1.0 // CV(0.15) ≈ 41, CV(1) = 1: brackets any cv > 1
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if (spec.Arrival{Process: spec.ProcWeibull, Shape: mid}).CV() > cv {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
