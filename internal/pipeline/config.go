// Package pipeline implements the simulated out-of-order core: a
// P6-derived machine with in-order fetch/decode/rename, a reservation-
// station scheduler issuing to typed execution ports, a re-order
// buffer, load and store buffers, and in-order retirement.
//
// SOE hooks: micro-ops whose execution involves an L2 miss (demand,
// coalesced, or a dTLB page-walk miss) are flagged in the ROB; every
// cycle the pipeline reports whether the next-to-retire micro-op is
// flagged with an unresolved miss — the paper's thread-switch trigger
// (§4.1). Squash drains the machine for a thread switch and returns
// the architectural position at which the thread must later resume
// (the workload generator regenerates the squashed micro-ops).
//
// Documented approximations (DESIGN.md §2): branch mispredictions
// stall the front end from fetch until the branch resolves (equivalent
// to flushing younger micro-ops, without modelling wrong-path
// execution), and store-to-load forwarding consults the post-retire
// store buffer only.
package pipeline

// Config sizes the core. DefaultConfig matches Table 3 of DESIGN.md.
type Config struct {
	FetchWidth  int // micro-ops fetched per cycle
	RenameWidth int // micro-ops renamed/allocated per cycle
	RetireWidth int // micro-ops retired per cycle

	ROBSize      int // re-order buffer entries
	RSSize       int // reservation station entries
	LoadBufSize  int // in-flight loads
	StoreBufSize int // retired stores awaiting cache dispatch
	FetchQSize   int // fetched micro-ops awaiting rename

	DecodeCycles    int // fixed decode depth after instruction fetch
	RedirectPenalty int // extra cycles to redirect fetch after a resolved mispredict
	BTBMissPenalty  int // fetch bubble when a predicted-taken branch misses the BTB

	BranchEntries int  // direction predictor table entries
	BTBEntries    int  // branch target buffer entries
	RASDepth      int  // inert Table 3 value: the ISA has no call or return, so no stack is built
	HistoryBits   uint // gshare history length
}

// DefaultConfig returns the P6-derived configuration used throughout
// the experiments (sizes per DESIGN.md: Intel-disclosed structures,
// slightly increased per the paper's description).
func DefaultConfig() Config {
	return Config{
		FetchWidth:      4,
		RenameWidth:     4,
		RetireWidth:     4,
		ROBSize:         96,
		RSSize:          36,
		LoadBufSize:     32,
		StoreBufSize:    20,
		FetchQSize:      16,
		DecodeCycles:    4,
		RedirectPenalty: 2,
		BTBMissPenalty:  2,
		BranchEntries:   16384,
		BTBEntries:      4096,
		RASDepth:        16,
		HistoryBits:     12,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	for _, v := range []struct {
		name string
		val  int
	}{
		{"FetchWidth", c.FetchWidth},
		{"RenameWidth", c.RenameWidth},
		{"RetireWidth", c.RetireWidth},
		{"ROBSize", c.ROBSize},
		{"RSSize", c.RSSize},
		{"LoadBufSize", c.LoadBufSize},
		{"StoreBufSize", c.StoreBufSize},
		{"FetchQSize", c.FetchQSize},
	} {
		if v.val <= 0 {
			return &ConfigError{Field: v.name}
		}
	}
	if c.DecodeCycles < 0 || c.RedirectPenalty < 0 || c.BTBMissPenalty < 0 {
		return &ConfigError{Field: "penalties"}
	}
	// The issue scheduler packs RS slot indices into 16-bit key fields.
	if c.RSSize > 1<<16 {
		return &ConfigError{Field: "RSSize"}
	}
	return nil
}

// ConfigError reports an invalid Config field.
type ConfigError struct{ Field string }

func (e *ConfigError) Error() string {
	return "pipeline: invalid config field " + e.Field
}
