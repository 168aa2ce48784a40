package experiments

import (
	"context"
	"errors"

	"soemt/internal/sim"
)

// The remote peer cache tier (DESIGN.md §13).
//
// A cluster of soeserve nodes shares completed results by pulling
// them from the ring owner on local miss: memory → disk → PEER →
// simulate. The tier is strictly best-effort and trust-nothing: a
// peer response is accepted only after the same sha256 content
// checksum that guards the disk layer verifies, and any failure —
// network, timeout, 5xx, corruption, schema drift — silently degrades
// to local execution. The worst case is re-simulation on this node;
// a wrong result is impossible, mirroring the corrupt-cache invariant
// the disk layer has carried since PR 2.

// ErrNoPeer reports that the peer tier had no answer without anything
// going wrong: no peer is configured for the key (this node owns it),
// or the owning node does not have the entry. Peer-fill functions
// return it (possibly wrapped) to distinguish a clean miss from a
// degraded fetch in the cluster.peer_fill_* metrics.
var ErrNoPeer = errors.New("experiments: no peer result")

// SetPeerFill installs the remote peer tier consulted on local cache
// miss (nil removes it). fn must return a VERIFIED result —
// DecodeVerifiedEntry is the intended decoder — or ErrNoPeer for a
// clean miss; any other error counts as a degraded fetch. Install it
// before the cache serves traffic, alongside SetRunFunc.
func (c *Cache) SetPeerFill(fn func(ctx context.Context, key string) (*sim.Result, error)) {
	c.peerFill = fn
}

// fetchPeer consults the peer tier for key, counting the outcome.
// Any error degrades to a nil return — the caller falls through to
// local execution, never fails the run.
func (c *Cache) fetchPeer(ctx context.Context, key string) *sim.Result {
	fn := c.peerFill
	if fn == nil {
		return nil
	}
	res, err := fn(ctx, key)
	switch {
	case err == nil && res != nil:
		c.m.peerHits.Add(1)
		return res
	case errors.Is(err, ErrNoPeer):
		c.m.peerMisses.Add(1)
	default:
		c.m.peerErrors.Add(1)
		c.logf("WARN cache: peer fill %.12s…: %v (degrading to local run)", key, err)
	}
	return nil
}
