package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"soemt/internal/core"
)

// Validate aggregates the hardware configuration checks: pipeline
// geometry, memory-hierarchy geometry, and controller parameters.
func (m MachineConfig) Validate() error {
	if err := m.Pipeline.Validate(); err != nil {
		return err
	}
	if err := m.Memory.Validate(); err != nil {
		return err
	}
	if err := m.Controller.Validate(); err != nil {
		return err
	}
	return nil
}

// Validate reports measurement-protocol errors. A zero measurement
// target would make the run vacuous, so it is rejected; the warmup
// lengths and the MaxCycles cap may legitimately be zero.
func (s Scale) Validate() error {
	if s.Measure == 0 {
		return fmt.Errorf("sim: zero measurement target")
	}
	return nil
}

// Validate checks the complete run description: at least one thread,
// a valid machine, a valid protocol, and well-formed thread specs.
// sim.Run validates specs before building any machine state, so an
// invalid CLI flag or sweep value surfaces as an error here rather
// than as a panic deep inside a constructor.
func (s Spec) Validate() error {
	if len(s.Threads) == 0 {
		return fmt.Errorf("sim: no threads")
	}
	if err := s.Machine.Validate(); err != nil {
		return err
	}
	if err := s.Scale.Validate(); err != nil {
		return err
	}
	for i, ts := range s.Threads {
		if err := ts.Profile.Validate(); err != nil {
			return fmt.Errorf("sim: thread %d: %w", i, err)
		}
		if ts.Slot < 0 {
			return fmt.Errorf("sim: thread %d: negative slot", i)
		}
	}
	if _, err := s.engine(); err != nil {
		return err
	}
	return nil
}

// engine resolves the spec's engine selection to the controller enum.
// Empty Engine means fast-forward, unless the deprecated CycleByCycle
// switch asks for the reference.
func (s Spec) engine() (core.Engine, error) {
	switch s.Engine {
	case "":
		if s.CycleByCycle {
			return core.EngineCycleByCycle, nil
		}
		return core.EngineFastForward, nil
	case "cycle-by-cycle":
		return core.EngineCycleByCycle, nil
	case "fast-forward":
		return core.EngineFastForward, nil
	}
	return 0, fmt.Errorf("sim: unknown engine %q (want cycle-by-cycle or fast-forward)", s.Engine)
}

// fingerprintLabel returns a short stable identifier for the spec,
// used to tag watchdog and panic errors so a failing run in a large
// matrix can be traced back to its exact configuration. It degrades
// to a placeholder rather than failing when the spec cannot be
// fingerprinted (e.g. a nil policy).
func (s Spec) fingerprintLabel() string {
	payload, err := s.FingerprintJSON()
	if err != nil {
		return "unfingerprintable"
	}
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:6])
}
