package experiments

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"soemt/internal/sim"
)

// Regression: a singleflight follower that joined a leader whose ctx
// was then cancelled must not inherit the leader's ctx.Err(). The
// follower's own ctx is live, so it must elect itself the new leader,
// rerun, and succeed. Before the fix the follower returned
// context.Canceled for a request nobody cancelled.
//
// Runs under -race in CI (the experiments package is in the race step).
func TestSingleflightFollowerSurvivesLeaderCancel(t *testing.T) {
	c := NewMemCache()
	spec := testSpec(testOptions())

	var runs atomic.Int32
	leaderIn := make(chan struct{})
	c.run = func(ctx context.Context, _ sim.Spec) (*sim.Result, error) {
		if runs.Add(1) == 1 {
			close(leaderIn)
			<-ctx.Done() // the leader dies of its own cancellation
			return nil, ctx.Err()
		}
		return fakeResult(1.5), nil
	}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := c.RunSpecContext(leaderCtx, spec)
		leaderErr <- err
	}()
	<-leaderIn

	type out struct {
		res *sim.Result
		err error
	}
	followerOut := make(chan out, 1)
	go func() {
		res, err := c.RunSpecContext(context.Background(), spec)
		followerOut <- out{res, err}
	}()
	// Let the follower reach the singleflight wait before the leader is
	// cancelled; even if it arrives late it self-elects, so this only
	// affects whether the dedup_retries assertion below is meaningful.
	time.Sleep(50 * time.Millisecond)
	cancelLeader()

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader error = %v, want context.Canceled", err)
	}
	fo := <-followerOut
	if fo.err != nil {
		t.Fatalf("follower with a live ctx inherited the leader's fate: %v", fo.err)
	}
	if fo.res == nil || fo.res.IPCTotal != 3.0 {
		t.Fatalf("follower result = %+v, want the rerun's result", fo.res)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("runs = %d, want 2 (cancelled leader + re-elected follower)", got)
	}
	if got := c.Observability().Counter("cache.dedup_retries").Load(); got != 1 {
		t.Fatalf("cache.dedup_retries = %d, want 1", got)
	}

	// The cell is not poisoned: a later call is a plain memory hit.
	res, err := c.RunSpecContext(context.Background(), spec)
	if err != nil || res != fo.res {
		t.Fatalf("post-recovery lookup = (%v, %v), want the shared result", res, err)
	}
	if m := c.Metrics(); m.MemHits != 1 {
		t.Fatalf("expected a memory hit after recovery, metrics = %+v", m)
	}
}

// A follower whose OWN ctx dies while waiting must return its ctx
// error promptly instead of blocking on a leader that never finishes.
func TestSingleflightFollowerHonorsOwnCancel(t *testing.T) {
	c := NewMemCache()
	spec := testSpec(testOptions())

	leaderIn := make(chan struct{})
	release := make(chan struct{})
	c.run = func(ctx context.Context, _ sim.Spec) (*sim.Result, error) {
		close(leaderIn)
		<-release
		return fakeResult(1.0), nil
	}
	go c.RunSpecContext(context.Background(), spec)
	<-leaderIn

	followerCtx, cancelFollower := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := c.RunSpecContext(followerCtx, spec)
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancelFollower()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("follower error = %v, want its own context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower did not honor its own cancellation while waiting")
	}
	close(release)
}

// A genuine simulation failure (not a cancellation) must still
// propagate to every waiting follower — re-election is only for
// leader-ctx death, never a retry loop for deterministic errors.
func TestSingleflightRealErrorsPropagate(t *testing.T) {
	c := NewMemCache()
	spec := testSpec(testOptions())

	boom := errors.New("deterministic simulation failure")
	var runs atomic.Int32
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	c.run = func(ctx context.Context, _ sim.Spec) (*sim.Result, error) {
		if runs.Add(1) == 1 {
			close(leaderIn)
		}
		<-release
		return nil, boom
	}
	leaderErr := make(chan error, 1)
	go func() {
		_, err := c.RunSpecContext(context.Background(), spec)
		leaderErr <- err
	}()
	<-leaderIn

	followerErr := make(chan error, 1)
	go func() {
		_, err := c.RunSpecContext(context.Background(), spec)
		followerErr <- err
	}()
	time.Sleep(20 * time.Millisecond)
	close(release)

	for _, ch := range []chan error{leaderErr, followerErr} {
		if err := <-ch; !errors.Is(err, boom) {
			t.Fatalf("error = %v, want the simulation failure", err)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("runs = %d, want 1 (no retry on deterministic errors)", got)
	}
}
