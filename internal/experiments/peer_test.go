package experiments

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"soemt/internal/faultinject"
	"soemt/internal/sim"
)

// peerStubResult builds a deterministic result distinct enough to tell
// a peer-served answer from a locally simulated one.
func peerStubResult(tag uint64) *sim.Result {
	return &sim.Result{WallCycles: 1000 + tag, IPCTotal: float64(tag)}
}

func TestPeerFillServesVerifiedEntryWithoutSimulating(t *testing.T) {
	c := NewMemCache()
	var runs int
	c.SetRunFunc(func(ctx context.Context, spec sim.Spec) (*sim.Result, error) {
		runs++
		return peerStubResult(999), nil
	})

	want := peerStubResult(7)
	c.SetPeerFill(func(ctx context.Context, key string) (*sim.Result, error) {
		data, err := EncodeEntry(key, want)
		if err != nil {
			return nil, err
		}
		return DecodeVerifiedEntry(data, key)
	})

	res, cached, err := c.DoContext(context.Background(), "peerkey", func() (*sim.Result, error) {
		runs++
		return peerStubResult(999), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("peer-served result not reported as cached")
	}
	if res.WallCycles != want.WallCycles {
		t.Fatalf("WallCycles = %d, want %d (peer result)", res.WallCycles, want.WallCycles)
	}
	if runs != 0 {
		t.Fatalf("local run fired %d times behind a peer hit, want 0", runs)
	}
	if got := c.Observability().Counter("cluster.peer_fill_hits").Load(); got != 1 {
		t.Fatalf("cluster.peer_fill_hits = %d, want 1", got)
	}

	// The fill populated the memory layer: a second call is a mem hit
	// and does not consult the peer again.
	c.SetPeerFill(func(ctx context.Context, key string) (*sim.Result, error) {
		t.Fatal("peer consulted on a warm key")
		return nil, nil
	})
	if _, cached, err := c.DoContext(context.Background(), "peerkey", nil); err != nil || !cached {
		t.Fatalf("warm re-read: cached=%v err=%v", cached, err)
	}
}

func TestPeerFillPersistsToDisk(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := peerStubResult(3)
	c.SetPeerFill(func(ctx context.Context, key string) (*sim.Result, error) {
		return want, nil
	})
	if _, _, err := c.DoContext(context.Background(), "diskkey", nil); err != nil {
		t.Fatal(err)
	}

	// A fresh cache over the same directory serves from disk — the peer
	// fetch was persisted, so a restart costs no network round trip.
	c2, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2.SetPeerFill(func(ctx context.Context, key string) (*sim.Result, error) {
		t.Fatal("peer consulted for an entry already on disk")
		return nil, nil
	})
	res, ok := c2.Get("diskkey")
	if !ok || res.WallCycles != want.WallCycles {
		t.Fatalf("disk re-read: ok=%v res=%+v", ok, res)
	}
}

func TestPeerFillMissAndErrorDegradeToLocalRun(t *testing.T) {
	cases := []struct {
		name    string
		peerErr error
		counter string
	}{
		{"clean miss", ErrNoPeer, "cluster.peer_fill_misses"},
		{"wrapped miss", fmt.Errorf("owner %s: %w", "http://n2", ErrNoPeer), "cluster.peer_fill_misses"},
		{"network error", errors.New("dial tcp: connection refused"), "cluster.peer_fill_errors"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewMemCache()
			c.SetPeerFill(func(ctx context.Context, key string) (*sim.Result, error) {
				return nil, tc.peerErr
			})
			want := peerStubResult(11)
			res, cached, err := c.DoContext(context.Background(), "k", func() (*sim.Result, error) { return want, nil })
			if err != nil {
				t.Fatal(err)
			}
			if cached {
				t.Fatal("degraded peer fetch reported as cached")
			}
			if res.WallCycles != want.WallCycles {
				t.Fatalf("degraded path returned %d, want local result %d", res.WallCycles, want.WallCycles)
			}
			if got := c.Observability().Counter(tc.counter).Load(); got != 1 {
				t.Fatalf("%s = %d, want 1", tc.counter, got)
			}
		})
	}
}

func TestDecodeVerifiedEntryRejectsBadEnvelopes(t *testing.T) {
	res := peerStubResult(5)
	good, err := EncodeEntry("key1", res)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeVerifiedEntry(good, "key1"); err != nil {
		t.Fatalf("valid entry rejected: %v", err)
	}

	if _, err := DecodeVerifiedEntry(good, "otherkey"); err == nil {
		t.Fatal("key mismatch accepted")
	}
	if _, err := DecodeVerifiedEntry([]byte("{not json"), "key1"); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	if _, err := DecodeVerifiedEntry([]byte(`{"schema":"older-v0","key":"key1"}`), "key1"); err == nil {
		t.Fatal("wrong schema accepted")
	}
	// An entry with no checksum is rejected outright.
	noSum := fmt.Sprintf(`{"schema":%q,"key":"key1","result":{"wall_cycles":1005}}`, SchemaVersion)
	if _, err := DecodeVerifiedEntry([]byte(noSum), "key1"); err == nil {
		t.Fatal("entry without checksum accepted")
	}
}

func TestPeerFillCorruptEntryDegradesToLocalRun(t *testing.T) {
	// End-to-end corruption drill: the peer returns an entry whose bytes
	// were flipped in flight (CorruptBytes, as the fault transport does).
	// DecodeVerifiedEntry must reject it and the cache must re-simulate —
	// a corrupt peer can cost a run, never produce a wrong result.
	c := NewMemCache()
	c.SetPeerFill(func(ctx context.Context, key string) (*sim.Result, error) {
		data, err := EncodeEntry(key, peerStubResult(8))
		if err != nil {
			return nil, err
		}
		faultinject.CorruptBytes(data, 42, 0)
		return DecodeVerifiedEntry(data, key)
	})
	want := peerStubResult(21)
	res, cached, err := c.DoContext(context.Background(), "k", func() (*sim.Result, error) { return want, nil })
	if err != nil {
		t.Fatal(err)
	}
	if cached || res.WallCycles != want.WallCycles {
		t.Fatalf("corrupt peer entry: cached=%v cycles=%d, want local run %d", cached, res.WallCycles, want.WallCycles)
	}
	if got := c.Observability().Counter("cluster.peer_fill_errors").Load(); got != 1 {
		t.Fatalf("cluster.peer_fill_errors = %d, want 1", got)
	}
	if got := c.Observability().Counter("runner.runs_started").Load(); got != 0 {
		// Do() with an inline fn does not go through RunSpecContext's
		// counters; this guards against accidental double-counting.
		t.Fatalf("runner.runs_started = %d, want 0", got)
	}
}
