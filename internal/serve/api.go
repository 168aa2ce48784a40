package serve

import (
	"fmt"
	"strconv"
	"strings"

	"soemt/internal/core"
	"soemt/internal/experiments"
	"soemt/internal/sim"
	"soemt/internal/workload"
)

// RunRequest is the body of POST /v1/run: one simulation, either a
// two-thread SOE pair at an enforcement level or a single-thread
// reference run.
type RunRequest struct {
	// Pair names a two-thread combination "a:b" (e.g. "gcc:eon").
	// Same-benchmark pairs are offset like the sweep tools: 1M
	// instructions at paper scale, 100k otherwise.
	Pair string `json:"pair,omitempty"`
	// Bench names a single-thread (event-only) reference run instead of
	// a pair. Exactly one of Pair or Bench must be set.
	Bench string `json:"bench,omitempty"`
	// F is the fairness enforcement level for pair runs; 0 selects the
	// event-only policy.
	F float64 `json:"f,omitempty"`
	// Scale selects the measurement protocol: "tiny", "quick" (default)
	// or "paper".
	Scale string `json:"scale,omitempty"`
	// Trace attaches an event tracer to the run; the recorded window is
	// downloadable from /v1/jobs/{id}/trace once the job is done. A
	// request served entirely from the result cache skips the simulation
	// and records no events. Incompatible with tier=fast (no simulation,
	// nothing to trace).
	Trace bool `json:"trace,omitempty"`
	// Tier selects serving fidelity: "fast" (synchronous calibrated
	// model, error bars, no simulation), "exact" (queued cycle-accurate
	// job), or "auto" (fast answer now, exact refinement in place).
	// Empty uses the server default (DESIGN.md §12).
	Tier string `json:"tier,omitempty"`
}

// SweepRequest is the body of POST /v1/sweep: the pair × F-level
// matrix. Every listed pair runs at all canonical enforcement levels
// (experiments.FLevels) plus its two single-thread references.
type SweepRequest struct {
	// Pairs restricts the sweep to the named "a:b" combinations. Empty
	// means the paper's full 16-pair matrix, executed through the pooled
	// experiments.RunAllContext path.
	Pairs []string `json:"pairs,omitempty"`
	// Scale selects the measurement protocol (as in RunRequest).
	Scale string `json:"scale,omitempty"`
	// Tier selects serving fidelity, as in RunRequest.
	Tier string `json:"tier,omitempty"`
}

// RunResult is the terminal payload of a run job.
type RunResult struct {
	Fingerprint string      `json:"fingerprint"`
	IPCTotal    float64     `json:"ipc_total"`
	WallCycles  uint64      `json:"wall_cycles"`
	Threads     []ThreadIPC `json:"threads"`
	Switches    uint64      `json:"switches"`
	ForcedPer1k float64     `json:"forced_per_1k"`
	Truncated   bool        `json:"truncated,omitempty"`
}

// ThreadIPC is one thread's throughput in a RunResult.
type ThreadIPC struct {
	Name string  `json:"name"`
	IPC  float64 `json:"ipc"`
}

// SweepResult is the terminal payload of a sweep job. An interrupted
// sweep (server drain hit its deadline) still carries every row that
// completed, with Incomplete set.
type SweepResult struct {
	Rows       []SweepRow `json:"rows"`
	Incomplete bool       `json:"incomplete,omitempty"`
	Note       string     `json:"note,omitempty"`
}

// SweepRow is one pair's slice of the matrix.
type SweepRow struct {
	Pair  string               `json:"pair"`
	IPCST [2]float64           `json:"ipc_st"`
	ByF   map[string]SweepCell `json:"by_f"`
}

// SweepCell is one (pair, F) cell.
type SweepCell struct {
	IPC         float64 `json:"ipc"`
	Fairness    float64 `json:"fairness"`
	ForcedPer1k float64 `json:"forced_per_1k"`
}

// fKey renders an enforcement level as a stable JSON map key.
func fKey(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// scaleByName resolves a request's scale name; empty means quick.
func scaleByName(name string) (sim.Scale, error) {
	if name == "" {
		name = "quick"
	}
	return sim.ScaleByName(name)
}

// sameOffset mirrors the sweep tools: paper-scale same-benchmark pairs
// start 1M instructions apart, smaller scales 100k.
func sameOffset(sc sim.Scale) uint64 {
	if sc == sim.PaperScale() {
		return 1_000_000
	}
	return 100_000
}

// buildSpec validates the request and lowers it to a sim.Spec plus the
// thread names used for trace export.
func (rq RunRequest) buildSpec() (sim.Spec, []string, error) {
	if (rq.Pair == "") == (rq.Bench == "") {
		return sim.Spec{}, nil, fmt.Errorf("exactly one of pair or bench must be set")
	}
	if rq.F < 0 || rq.F > 1 {
		return sim.Spec{}, nil, fmt.Errorf("f must be in [0, 1], got %v", rq.F)
	}
	sc, err := scaleByName(rq.Scale)
	if err != nil {
		return sim.Spec{}, nil, err
	}
	m := sim.DefaultMachine()
	if rq.Bench != "" {
		p, ok := workload.ByName(rq.Bench)
		if !ok {
			return sim.Spec{}, nil, fmt.Errorf("unknown profile %q", rq.Bench)
		}
		m.Controller.Policy = core.EventOnly{}
		spec := sim.Spec{
			Machine: m,
			Threads: []sim.ThreadSpec{{Profile: p, Slot: 0}},
			Scale:   sc,
		}
		return spec, []string{p.Name}, nil
	}
	p, err := experiments.ParsePair(rq.Pair)
	if err != nil {
		return sim.Spec{}, nil, err
	}
	m.Controller.Policy = experiments.PolicyFor(rq.F)
	spec := sim.Spec{Machine: m, Threads: p.Threads(sameOffset(sc)), Scale: sc}
	return spec, []string{p.A, p.B}, nil
}

// RouteKey returns the content-addressed key a gateway routes this
// request by: the spec fingerprint, identical to the server-side
// coalescing key (minus the |trace suffix — traced and untraced twins
// should land on the same node). An invalid request fails here the
// same way it would fail at submit time, so the gateway rejects it
// with 400 instead of burning a candidate walk.
func (rq RunRequest) RouteKey() (string, error) {
	spec, _, err := rq.buildSpec()
	if err != nil {
		return "", err
	}
	return experiments.Fingerprint(spec)
}

// RouteKey returns the routing key for a sweep: the coalescing key,
// so identical matrices land on (and coalesce at) one node.
func (rq SweepRequest) RouteKey() (string, error) {
	if err := rq.validate(); err != nil {
		return "", err
	}
	return rq.sweepKey(), nil
}

// sweepKey is the coalescing key for a sweep request: identical
// matrices share one job.
func (rq SweepRequest) sweepKey() string {
	scale := rq.Scale
	if scale == "" {
		scale = "quick"
	}
	return "sweep|" + scale + "|" + strings.Join(rq.Pairs, ",")
}

// validate resolves the request's pairs and scale without running
// anything, so bad requests fail at submit time with 400, not inside a
// job.
func (rq SweepRequest) validate() error {
	if _, err := scaleByName(rq.Scale); err != nil {
		return err
	}
	for _, p := range rq.Pairs {
		if _, err := experiments.ParsePair(p); err != nil {
			return err
		}
	}
	return nil
}

// rowFrom flattens one PairRun into a wire row.
func rowFrom(pr *experiments.PairRun) SweepRow {
	row := SweepRow{
		Pair:  pr.Pair.Name(),
		IPCST: pr.ST,
		ByF:   make(map[string]SweepCell, len(experiments.FLevels)),
	}
	for _, f := range experiments.FLevels {
		res := pr.ByF[f]
		if res == nil {
			continue
		}
		row.ByF[fKey(f)] = SweepCell{
			IPC:         res.IPCTotal,
			Fairness:    pr.Fairness(f),
			ForcedPer1k: res.ForcedPer1k(),
		}
	}
	return row
}

// runResultFrom flattens a sim.Result into the wire payload.
func runResultFrom(fingerprint string, res *sim.Result) RunResult {
	out := RunResult{
		Fingerprint: fingerprint,
		IPCTotal:    res.IPCTotal,
		WallCycles:  res.WallCycles,
		Switches:    res.Switches.Total(),
		ForcedPer1k: res.ForcedPer1k(),
		Truncated:   res.Truncated,
	}
	for _, tr := range res.Threads {
		out.Threads = append(out.Threads, ThreadIPC{Name: tr.Name, IPC: tr.IPC})
	}
	return out
}
