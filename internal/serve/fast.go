package serve

import (
	"fmt"
	"math"
	"time"

	"soemt/internal/experiments"
	"soemt/internal/model"
	"soemt/internal/sim"
)

// Fidelity tiers (DESIGN.md §12). The fast tier answers synchronously
// from the calibrated analytical model — microseconds, no engine. The
// exact tier is the pre-existing queued cycle-accurate path. Auto is
// the observe–predict–calibrate composition: the fast answer returns
// immediately and the exact simulation refines the job in place.
const (
	TierFast  = "fast"
	TierExact = "exact"
	TierAuto  = "auto"
)

// Fidelity markers on results and job views.
const (
	FidelityAnalytical = "analytical"
	FidelityExact      = "exact"
)

// fastCacheCap bounds the in-memory fast-answer cache. Entries are
// tiny (a few floats); the cap only guards against unbounded distinct
// specs. When full, answers are still served — just recomputed.
const fastCacheCap = 4096

// tierFor validates a request's tier, falling back to the server
// default for an empty field.
func tierFor(requested, dflt string) (string, error) {
	t := requested
	if t == "" {
		t = dflt
	}
	switch t {
	case TierFast, TierExact, TierAuto:
		return t, nil
	}
	return "", fmt.Errorf("unknown tier %q (want fast, exact or auto)", t)
}

// FastRunResult is the synchronous analytical answer to /v1/run for
// tier=fast, and the provisional payload of a tier=auto job before the
// exact simulation lands. Error bars come from the calibration table
// that produced the prediction.
type FastRunResult struct {
	Fingerprint string          `json:"fingerprint"`
	Fidelity    string          `json:"fidelity"` // always "analytical"
	Calibration string          `json:"calibration"`
	IPCTotal    float64         `json:"ipc_total"`
	Fairness    float64         `json:"fairness"`
	Threads     []FastThreadIPC `json:"threads"`
	ErrIPCPc    float64         `json:"err_ipc_pc"`
	ErrFairness float64         `json:"err_fairness"`
}

// FastThreadIPC is one thread's analytical prediction.
type FastThreadIPC struct {
	Name    string  `json:"name"`
	IPC     float64 `json:"ipc"`
	Speedup float64 `json:"speedup,omitempty"`
}

// FastSweepResult is the analytical pair × F matrix for tier=fast
// sweeps.
type FastSweepResult struct {
	Fidelity    string         `json:"fidelity"` // always "analytical"
	Calibration string         `json:"calibration"`
	ErrIPCPc    float64        `json:"err_ipc_pc"`
	ErrFairness float64        `json:"err_fairness"`
	Rows        []FastSweepRow `json:"rows"`
}

// FastSweepRow is one pair's slice of the analytical matrix.
type FastSweepRow struct {
	Pair  string                   `json:"pair"`
	IPCST [2]float64               `json:"ipc_st"`
	ByF   map[string]FastSweepCell `json:"by_f"`
}

// FastSweepCell is one analytical (pair, F) cell.
type FastSweepCell struct {
	IPC      float64 `json:"ipc"`
	Fairness float64 `json:"fairness"`
}

// fastRunAnswer predicts one run request from the calibration table.
// The returned payload is guaranteed fully finite: a degenerate
// prediction is an error here, never a NaN in a JSON response or the
// fast cache.
func (s *Server) fastRunAnswer(rq RunRequest, fp string) (*FastRunResult, error) {
	key := fp + "|fast"
	s.mu.Lock()
	cached, ok := s.fastCache[key]
	s.mu.Unlock()
	if ok {
		s.fastCacheHitsC.Inc()
		res, _ := cached.(*FastRunResult)
		if res != nil {
			return res, nil
		}
	}

	start := time.Now()
	cal := s.calibration
	out := &FastRunResult{
		Fingerprint: fp,
		Fidelity:    FidelityAnalytical,
		Calibration: cal.Source,
		ErrIPCPc:    cal.ErrIPCPc,
		ErrFairness: cal.ErrFairness,
	}
	if rq.Bench != "" {
		sys, err := cal.System(rq.Bench)
		if err != nil {
			return nil, err
		}
		ipc := sys.Threads[0].IPCST(cal.MissLat)
		out.IPCTotal = ipc
		out.Fairness = 1
		out.Threads = []FastThreadIPC{{Name: rq.Bench, IPC: ipc, Speedup: 1}}
	} else {
		pair, err := experiments.ParsePair(rq.Pair)
		if err != nil {
			return nil, err
		}
		sys, err := cal.System(pair.A, pair.B)
		if err != nil {
			return nil, err
		}
		p, err := sys.Predict(rq.F)
		if err != nil {
			return nil, err
		}
		out.IPCTotal = p.Total
		out.Fairness = p.Fairness
		for i, name := range []string{pair.A, pair.B} {
			out.Threads = append(out.Threads, FastThreadIPC{
				Name: name, IPC: p.IPCSOE[i], Speedup: p.Speedup[i],
			})
		}
	}
	if err := out.checkFinite(); err != nil {
		return nil, err
	}

	s.mu.Lock()
	if len(s.fastCache) < fastCacheCap {
		s.fastCache[key] = out
	}
	s.mu.Unlock()
	s.fastLatencyC.Add(uint64(time.Since(start).Microseconds()))
	return out, nil
}

// fastSweepAnswer predicts a whole pair × F matrix analytically. Empty
// Pairs means the paper's full 16-pair matrix, mirroring the exact
// path.
func (s *Server) fastSweepAnswer(rq SweepRequest) (*FastSweepResult, error) {
	start := time.Now()
	names := rq.Pairs
	if len(names) == 0 {
		for _, p := range experiments.Pairs() {
			names = append(names, p.Name())
		}
	}
	cal := s.calibration
	out := &FastSweepResult{
		Fidelity:    FidelityAnalytical,
		Calibration: cal.Source,
		ErrIPCPc:    cal.ErrIPCPc,
		ErrFairness: cal.ErrFairness,
	}
	for _, name := range names {
		pair, err := experiments.ParsePair(name)
		if err != nil {
			return nil, err
		}
		sys, err := cal.System(pair.A, pair.B)
		if err != nil {
			return nil, err
		}
		row := FastSweepRow{
			Pair: name,
			ByF:  make(map[string]FastSweepCell, len(experiments.FLevels)),
		}
		for i := range sys.Threads {
			row.IPCST[i] = sys.Threads[i].IPCST(cal.MissLat)
		}
		for _, f := range experiments.FLevels {
			p, err := sys.Predict(f)
			if err != nil {
				return nil, err
			}
			if !isFinite(p.Total) || !isFinite(p.Fairness) {
				return nil, fmt.Errorf("serve: non-finite prediction for %s F=%v", name, f)
			}
			row.ByF[fKey(f)] = FastSweepCell{IPC: p.Total, Fairness: p.Fairness}
		}
		out.Rows = append(out.Rows, row)
	}
	s.fastLatencyC.Add(uint64(time.Since(start).Microseconds()))
	return out, nil
}

// checkFinite is the model→JSON boundary guard: nothing non-finite
// leaves the fast path.
func (r *FastRunResult) checkFinite() error {
	vals := []float64{r.IPCTotal, r.Fairness, r.ErrIPCPc, r.ErrFairness}
	for _, t := range r.Threads {
		vals = append(vals, t.IPC, t.Speedup)
	}
	for _, v := range vals {
		if !isFinite(v) {
			return fmt.Errorf("serve: non-finite value %v in analytical answer", v)
		}
	}
	return nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// defaultCalibration is the serving fallback when no fitted table is
// configured: profile-derived parameters with honest wide bars.
func defaultCalibration() (*model.Calibration, error) {
	return experiments.ProfileCalibration(sim.DefaultMachine())
}

// publishCalibrationMetrics exposes the loaded table on /metrics.
func (s *Server) publishCalibrationMetrics() {
	cal := s.calibration
	s.reg.Gauge("model.calibration.threads").Set(int64(len(cal.Threads)))
	s.reg.Gauge("model.calibration.pairs").Set(int64(len(cal.Pairs)))
	s.reg.Gauge("model.calibration.err_ipc_pc_milli").Set(int64(cal.ErrIPCPc * 1000))
	s.reg.Gauge("model.calibration.err_fairness_milli").Set(int64(cal.ErrFairness * 1000))
	var fromSim int64
	if cal.Source == model.SourceSimulation {
		fromSim = 1
	}
	s.reg.Gauge("model.calibration.from_simulation").Set(fromSim)
}
