// Package faultinject provides deterministic, seeded fault injection
// for the experiment engine's robustness tests.
//
// The engine's resilience claims — corrupt cache entries degrade to
// misses, failed writes degrade to warnings, worker panics degrade to
// errors, and none of them ever degrade to a WRONG result — are only
// trustworthy if the faults that exercise them are reproducible. Every
// decision here is a pure function of (seed, site, call index) via the
// counter-mode generators in internal/rng, so a failing fault-injection
// test replays bit-identically from its seed.
//
// An Injector is a set of named sites ("cache.write", "worker.panic",
// ...), each with an arming Plan. Production code calls the
// nil-receiver-safe hooks (Fail, Sleep, MaybePanic) unconditionally;
// with a nil or unarmed Injector they cost one predictable branch.
package faultinject

import (
	"fmt"
	"os"
	"sync"
	"time"

	"soemt/internal/rng"
)

// Plan arms one site. Exactly one of Every/Prob selects the firing
// pattern: Every fires deterministically on every Nth call (1 = every
// call); otherwise Prob fires pseudo-randomly with the given
// per-call probability, deterministic in (seed, site, call index).
type Plan struct {
	Every uint64        // fire on calls where (index+1) % Every == 0; 0 = use Prob
	Prob  float64       // per-call firing probability in [0, 1]
	Delay time.Duration // injected sleep for Sleep sites
	Err   error         // error returned by Fail sites (defaults to ErrInjected)
}

// ErrInjected is the default error returned by armed Fail sites.
var ErrInjected = fmt.Errorf("faultinject: injected fault")

// Injector decides deterministically whether each call to a named
// site faults. The zero value and the nil pointer are inert: every
// hook is safe to call and never fires.
type Injector struct {
	seed uint64

	mu    sync.Mutex
	plans map[string]Plan
	calls map[string]uint64 // per-site call counter
	fired map[string]uint64 // per-site fault counter
}

// New returns an Injector whose decisions derive from seed.
func New(seed uint64) *Injector {
	return &Injector{
		seed:  seed,
		plans: make(map[string]Plan),
		calls: make(map[string]uint64),
		fired: make(map[string]uint64),
	}
}

// Arm installs (or replaces) the plan for site.
func (in *Injector) Arm(site string, p Plan) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.plans[site] = p
	return in
}

// Hit reports whether this call to site faults, advancing the site's
// call counter. Nil-receiver safe. The decision is a pure function of
// (seed, site, call index): replaying the same sequence of calls
// yields the same sequence of faults.
func (in *Injector) Hit(site string) bool {
	if in == nil {
		return false
	}
	hit, _ := in.decide(site)
	return hit
}

func (in *Injector) decide(site string) (bool, Plan) {
	in.mu.Lock()
	defer in.mu.Unlock()
	p, armed := in.plans[site]
	n := in.calls[site]
	in.calls[site] = n + 1
	if !armed {
		return false, Plan{}
	}
	var hit bool
	if p.Every > 0 {
		hit = (n+1)%p.Every == 0
	} else {
		hit = rng.Float64At(rng.Sub(in.seed, site), n) < p.Prob
	}
	if hit {
		in.fired[site]++
	}
	return hit, p
}

// Fail returns the site's injected error when this call faults, and
// nil otherwise. Nil-receiver safe.
func (in *Injector) Fail(site string) error {
	if in == nil {
		return nil
	}
	hit, p := in.decide(site)
	if !hit {
		return nil
	}
	if p.Err != nil {
		return p.Err
	}
	return fmt.Errorf("%w at %s", ErrInjected, site)
}

// Sleep blocks for the site's configured delay when this call faults.
// Nil-receiver safe.
func (in *Injector) Sleep(site string) {
	if in == nil {
		return
	}
	if hit, p := in.decide(site); hit && p.Delay > 0 {
		time.Sleep(p.Delay)
	}
}

// MaybePanic panics with a labeled value when this call faults —
// exercising the engine's panic-recovery boundaries. Nil-receiver
// safe.
func (in *Injector) MaybePanic(site string) {
	if in == nil {
		return
	}
	if hit, _ := in.decide(site); hit {
		panic(fmt.Sprintf("faultinject: injected panic at %s", site))
	}
}

// Calls returns how many times site has been consulted.
func (in *Injector) Calls(site string) uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.calls[site]
}

// Fired returns how many times site has faulted.
func (in *Injector) Fired(site string) uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired[site]
}

// CorruptFile overwrites a deterministic region of the file with
// seeded garbage, simulating on-disk corruption (torn writes, bit
// rot). The region and bytes derive from seed, so a corruption test
// replays identically.
func CorruptFile(path string, seed uint64) error {
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	size := info.Size()
	if size == 0 {
		return fmt.Errorf("faultinject: %s is empty, nothing to corrupt", path)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	// Corrupt up to 64 bytes starting at a seeded offset.
	n := int64(rng.Uint64At(seed, 0)%64) + 1
	off := int64(rng.Uint64At(seed, 1) % uint64(size))
	if off+n > size {
		n = size - off
	}
	garbage := make([]byte, n)
	for i := range garbage {
		garbage[i] = byte(rng.Uint64At(seed, uint64(2+i)))
	}
	_, err = f.WriteAt(garbage, off)
	return err
}

// TruncateFile cuts the file to frac of its current size (clamped to
// [0, 1]), simulating a partial write that lost its tail.
func TruncateFile(path string, frac float64) error {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	return os.Truncate(path, int64(float64(info.Size())*frac))
}
