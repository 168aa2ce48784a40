package model

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// CalibrationSchemaVersion versions the persisted calibration table.
// Bump on any incompatible change to Calibration's JSON shape.
const CalibrationSchemaVersion = 1

// Calibration sources.
const (
	// SourceSimulation marks a table fitted against cycle-accurate
	// runs: ThreadParams inverted from single-thread references and
	// residual error bars measured by replaying golden pairs.
	SourceSimulation = "simulation"
	// SourceProfile marks a table derived from workload-profile
	// parameters alone (no simulation), with correspondingly wide
	// error bars.
	SourceProfile = "profile"
)

// Calibration is a persisted fit of the analytical model against a
// concrete machine: per-thread parameters, the effective latencies,
// and honest error bars measured (or assumed) for its predictions.
// It is the fast tier's entire serving state — a server answering
// from a Calibration never touches the cycle-accurate engine.
type Calibration struct {
	SchemaVersion int    `json:"schema_version"`
	Source        string `json:"source"` // SourceSimulation | SourceProfile
	Scale         string `json:"scale,omitempty"`

	MissLat   float64                 `json:"miss_lat"`
	SwitchLat float64                 `json:"switch_lat"`
	Threads   map[string]ThreadParams `json:"threads"`

	// Pairs records the model-vs-simulation residuals observed while
	// calibrating (empty for profile-derived tables).
	Pairs []PairResidual `json:"pairs,omitempty"`

	// ErrIPCPc is the half-width of the aggregate-IPC error bar as a
	// percentage: the worst relative residual seen during calibration
	// (floored), or an assumed width for profile-derived tables.
	ErrIPCPc float64 `json:"err_ipc_pc"`
	// ErrFairness is the half-width of the fairness error bar,
	// absolute on the [0, 1] fairness scale.
	ErrFairness float64 `json:"err_fairness"`
}

// PairResidual is one replayed (pair, F) point of the calibration:
// what the fitted model predicted next to what the engine measured.
type PairResidual struct {
	Pair          string  `json:"pair"`
	F             float64 `json:"f"`
	ModelIPC      float64 `json:"model_ipc"`
	SimIPC        float64 `json:"sim_ipc"`
	ModelFairness float64 `json:"model_fairness"`
	SimFairness   float64 `json:"sim_fairness"`
}

// IPCErrPc returns the relative aggregate-IPC residual in percent.
func (p PairResidual) IPCErrPc() float64 {
	if p.SimIPC <= 0 {
		return 0
	}
	return math.Abs(p.ModelIPC-p.SimIPC) / p.SimIPC * 100
}

// FairnessErr returns the absolute fairness residual.
func (p PairResidual) FairnessErr() float64 {
	return math.Abs(p.ModelFairness - p.SimFairness)
}

// Validate checks the table is usable for serving predictions.
func (c *Calibration) Validate() error {
	if c == nil {
		return fmt.Errorf("model: nil calibration")
	}
	if c.SchemaVersion != CalibrationSchemaVersion {
		return fmt.Errorf("model: calibration schema %d, want %d", c.SchemaVersion, CalibrationSchemaVersion)
	}
	if c.Source != SourceSimulation && c.Source != SourceProfile {
		return fmt.Errorf("model: unknown calibration source %q", c.Source)
	}
	if !finite(c.MissLat) || c.MissLat < 0 || !finite(c.SwitchLat) || c.SwitchLat < 0 {
		return fmt.Errorf("model: calibration latencies must be finite and non-negative")
	}
	if len(c.Threads) == 0 {
		return fmt.Errorf("model: calibration has no threads")
	}
	for name, t := range c.Threads {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("model: calibration thread %q: %w", name, err)
		}
	}
	if !finite(c.ErrIPCPc) || c.ErrIPCPc < 0 || !finite(c.ErrFairness) || c.ErrFairness < 0 {
		return fmt.Errorf("model: calibration error bars must be finite and non-negative")
	}
	return nil
}

// System assembles an analytical System for the named threads, in
// order. Unknown names are an error — the fast tier must refuse to
// answer rather than guess.
func (c *Calibration) System(names ...string) (*System, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("model: no thread names")
	}
	sys := &System{MissLat: c.MissLat, SwitchLat: c.SwitchLat}
	for _, n := range names {
		t, ok := c.Threads[n]
		if !ok {
			return nil, fmt.Errorf("model: calibration has no thread %q", n)
		}
		sys.Threads = append(sys.Threads, t)
	}
	return sys, nil
}

// Save writes the table as indented JSON.
func (c *Calibration) Save(path string) error {
	if err := c.Validate(); err != nil {
		return err
	}
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// LoadCalibration reads and validates a table written by Save.
func LoadCalibration(path string) (*Calibration, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c Calibration
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("model: parsing calibration %s: %w", path, err)
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("model: %s: %w", path, err)
	}
	return &c, nil
}

// FitThread inverts Eq. 1 to recover ThreadParams from the counters of
// a recorded single-thread run (a workload profile simulated alone, or
// a replayed internal/trace container): instrs retired, wall cycles
// including miss stalls, and switch-causing misses, under an assumed
// per-miss stall of missLat cycles.
//
//	IPM        = instrs / max(misses, 1)
//	IPC_ST     = instrs / cycles
//	CPM        = IPM/IPC_ST − Miss_lat   (Eq. 1 solved for CPM)
//	IPC_nomiss = IPM / CPM
//
// A run whose observed per-miss stall is shorter than missLat (memory
// parallelism, overlap) would invert to CPM ≤ 0; that is a fitting
// error, not a NaN.
func FitThread(name string, instrs, cycles, misses uint64, missLat float64) (ThreadParams, error) {
	if instrs == 0 || cycles == 0 {
		return ThreadParams{}, fmt.Errorf("model: fit %s: empty run (instrs=%d cycles=%d)", name, instrs, cycles)
	}
	if !finite(missLat) || missLat < 0 {
		return ThreadParams{}, fmt.Errorf("model: fit %s: missLat %v must be finite and non-negative", name, missLat)
	}
	m := misses
	if m == 0 {
		m = 1
	}
	ipm := float64(instrs) / float64(m)
	ipcST := float64(instrs) / float64(cycles)
	cpm := ipm/ipcST - missLat
	if cpm <= 0 {
		return ThreadParams{}, fmt.Errorf(
			"model: fit %s: assumed Miss_lat %v exceeds the observed %.1f cycles/miss; cannot invert Eq. 1",
			name, missLat, ipm/ipcST)
	}
	t := ThreadParams{Name: name, IPCNoMiss: ipm / cpm, IPM: ipm}
	if err := t.Validate(); err != nil {
		return ThreadParams{}, err
	}
	return t, nil
}
