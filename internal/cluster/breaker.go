package cluster

import (
	"sync"
	"time"

	"soemt/internal/rng"
)

// Breaker states.
const (
	BreakerClosed   = "closed"    // traffic flows, failures counted
	BreakerOpen     = "open"      // traffic refused until the backoff expires
	BreakerHalfOpen = "half-open" // exactly one probe request admitted
)

// Breaker is a per-node circuit breaker. It trips open after
// tripAfter consecutive failures, refuses traffic for a jittered
// exponentially-growing backoff (never shorter than the node's own
// Retry-After, when one was sent), then admits exactly one half-open
// probe; the probe's outcome closes the breaker or re-opens it with a
// doubled backoff. All methods are safe for concurrent use.
//
// The jitter is deterministic in (seed, trip index) — chaos tests
// replay bit-identically — and spans [1/2, 1) of the nominal backoff
// so a fleet of breakers tripped by the same dead node does not probe
// it in lockstep.
type Breaker struct {
	tripAfter int
	base, max time.Duration
	seed      uint64
	now       func() time.Time

	mu      sync.Mutex
	state   string
	fails   int // consecutive failures
	trips   uint64
	probing bool // a half-open probe is in flight
	until   time.Time
}

// newBreaker builds a closed breaker that trips after tripAfter
// consecutive failures and backs off from base up to max. now is its
// clock (tests pass a fake one).
func newBreaker(tripAfter int, base, max time.Duration, seed uint64, now func() time.Time) *Breaker {
	return &Breaker{tripAfter: tripAfter, base: base, max: max, seed: seed, now: now, state: BreakerClosed}
}

// Allow reports whether a request may be sent. An open breaker whose
// backoff has expired flips to half-open and admits exactly one probe;
// concurrent callers are refused until that probe resolves through
// Success or Failure.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Before(b.until) {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Success records a successful request: the breaker closes and the
// failure run and backoff exponent reset.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = BreakerClosed
	b.fails = 0
	b.trips = 0
	b.probing = false
}

// Failure records a failed request and returns true when this call
// tripped the breaker open. retryAfter is the node's own Retry-After
// (0 when none was sent); an opened breaker stays open at least that
// long — the node said when to come back, and hammering it sooner is
// exactly the overload cascade the gateway exists to prevent.
func (b *Breaker) Failure(retryAfter time.Duration) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if b.state == BreakerOpen {
		return false
	}
	if b.state == BreakerHalfOpen || b.fails >= b.tripAfter {
		b.trips++
		d := b.backoffLocked()
		if retryAfter > d {
			d = retryAfter
		}
		b.state = BreakerOpen
		b.probing = false
		b.until = b.now().Add(d)
		return true
	}
	return false
}

// backoffLocked derives the jittered exponential backoff for the
// current trip count: base << (trips-1) capped at max, scaled into
// [1/2, 1) by the deterministic per-trip jitter.
func (b *Breaker) backoffLocked() time.Duration {
	d := b.base
	for i := uint64(1); i < b.trips && d < b.max; i++ {
		d *= 2
	}
	if d > b.max {
		d = b.max
	}
	frac := 0.5 + rng.Float64At(rng.Sub(b.seed, "breaker"), b.trips)/2
	return time.Duration(float64(d) * frac)
}

// State returns the current state name and, for an open breaker, how
// long until the next half-open probe is admitted (0 otherwise).
func (b *Breaker) State() (string, time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen {
		if rem := b.until.Sub(b.now()); rem > 0 {
			return BreakerOpen, rem
		}
		// Backoff expired; the next Allow will flip to half-open.
		return BreakerOpen, 0
	}
	return b.state, 0
}
