package cluster

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"soemt/internal/obs"
)

func testCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.StopProbes)
	return c
}

func TestProbesDriveHealthStates(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, `{"ok":true}`)
	}))
	defer ts.Close()

	reg := obs.NewRegistry()
	c := testCluster(t, Config{Nodes: []string{ts.URL}, Registry: reg})

	ctx := context.Background()
	c.ProbeAll(ctx)
	if h := c.healthOf(ts.URL); h != Healthy {
		t.Fatalf("health after good probe = %s, want healthy", h)
	}

	healthy.Store(false) // e.g. the node started draining: healthz -> 503
	c.ProbeAll(ctx)
	if h := c.healthOf(ts.URL); h != Suspect {
		t.Fatalf("health after 1 failed probe = %s, want suspect", h)
	}
	c.ProbeAll(ctx)
	c.ProbeAll(ctx)
	if h := c.healthOf(ts.URL); h != Dead {
		t.Fatalf("health after 3 failed probes = %s, want dead", h)
	}
	if got := reg.Counter("cluster.probe_failures").Load(); got != 3 {
		t.Fatalf("cluster.probe_failures = %d, want 3", got)
	}

	healthy.Store(true) // recovery is immediate on the next good probe
	c.ProbeAll(ctx)
	if h := c.healthOf(ts.URL); h != Healthy {
		t.Fatalf("health after recovery probe = %s, want healthy", h)
	}
}

func TestCandidatesExcludeDeadAndPreferHealthy(t *testing.T) {
	nodes := []string{"http://n1", "http://n2", "http://n3"}
	c := testCluster(t, Config{Nodes: nodes})
	key := "somekey"
	pref := c.ring.Preference(key)

	if got := c.Candidates(key); len(got) != 3 || got[0] != pref[0] {
		t.Fatalf("all-healthy candidates = %v, want full preference %v", got, pref)
	}

	// The owner going dead promotes the deterministic successor.
	setHealth(c, pref[0], Dead)
	got := c.Candidates(key)
	if len(got) != 2 || got[0] != pref[1] {
		t.Fatalf("candidates with dead owner = %v, want [%s %s]", got, pref[1], pref[2])
	}

	// A suspect node is still routable, but after healthy ones.
	setHealth(c, pref[0], Suspect)
	got = c.Candidates(key)
	if len(got) != 3 || got[0] != pref[1] || got[2] != pref[0] {
		t.Fatalf("candidates with suspect owner = %v, want suspect owner demoted to last", got)
	}
}

func TestRoundTripBreakerLifecycle(t *testing.T) {
	var mode atomic.Int32 // 0 = 500s, 1 = 200s
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if mode.Load() == 0 {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		io.WriteString(w, "ok")
	}))
	defer ts.Close()

	reg := obs.NewRegistry()
	c := testCluster(t, Config{Nodes: []string{ts.URL}, Registry: reg})
	// Short backoffs, so the half-open probe comes within the test.
	c.node(ts.URL).breaker = newBreaker(3, 20*time.Millisecond, 40*time.Millisecond, 1, time.Now)
	ctx := context.Background()

	// Three 5xx in a row trip the breaker.
	for i := 0; i < 3; i++ {
		resp, err := c.RoundTrip(ctx, ts.URL, "GET", "/x", nil, nil)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	if got := reg.Counter("cluster.breaker_trips").Load(); got != 1 {
		t.Fatalf("cluster.breaker_trips = %d, want 1", got)
	}

	// While open: refused without dialing, with a retry hint.
	_, err := c.RoundTrip(ctx, ts.URL, "GET", "/x", nil, nil)
	var open *ErrBreakerOpen
	if !errors.As(err, &open) {
		t.Fatalf("request against open breaker returned %v, want ErrBreakerOpen", err)
	}
	if open.RetryAfter <= 0 {
		t.Fatalf("ErrBreakerOpen.RetryAfter = %s, want > 0", open.RetryAfter)
	}
	if st, _ := c.node(ts.URL).breaker.State(); st != BreakerOpen {
		t.Fatalf("breaker state = %s, want open", st)
	}

	// After the backoff, the half-open probe goes through; a success
	// closes the breaker.
	mode.Store(1)
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := c.RoundTrip(ctx, ts.URL, "GET", "/x", nil, nil)
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never recovered: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st, _ := c.node(ts.URL).breaker.State(); st != BreakerClosed {
		t.Fatalf("breaker state after recovery = %s, want closed", st)
	}
}

func TestRoundTrip429SeedsBackoffWithRetryAfter(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		http.Error(w, "queue full", http.StatusTooManyRequests)
	}))
	defer ts.Close()

	c := testCluster(t, Config{Nodes: []string{ts.URL}})
	// Trip on the first failure with a backoff far under the 7s asked for.
	c.node(ts.URL).breaker = newBreaker(1, time.Millisecond, maxBackoff, 1, time.Now)
	resp, err := c.RoundTrip(context.Background(), ts.URL, "POST", "/v1/run", []byte(`{}`), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	st, rem := c.node(ts.URL).breaker.State()
	if st != BreakerOpen {
		t.Fatalf("breaker after 429 (trip after 1) = %s, want open", st)
	}
	// The open duration must honor the node's Retry-After (7s), not the
	// 1ms exponential backoff.
	if rem < 6*time.Second || rem > 7*time.Second {
		t.Fatalf("open duration = %s, want ~7s from Retry-After", rem)
	}
}

func TestSnapshotExportsBreakerAndHealth(t *testing.T) {
	reg := obs.NewRegistry()
	c := testCluster(t, Config{
		Self:     "http://n1",
		Nodes:    []string{"http://n1", "http://n2"},
		Registry: reg,
	})
	setHealth(c, "http://n2", Dead)
	c.node("http://n2").breaker.Failure(0)
	c.node("http://n2").breaker.Failure(0)
	c.node("http://n2").breaker.Failure(0)

	snap := c.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d rows, want 2", len(snap))
	}
	byURL := map[string]NodeStatus{}
	for _, s := range snap {
		byURL[s.URL] = s
	}
	if !byURL["http://n1"].Self || byURL["http://n1"].Health != "healthy" {
		t.Fatalf("self row wrong: %+v", byURL["http://n1"])
	}
	n2 := byURL["http://n2"]
	if n2.Health != "dead" || n2.Breaker != BreakerOpen || n2.BreakerRetryMilli <= 0 {
		t.Fatalf("n2 row wrong: %+v", n2)
	}
	if got := reg.Gauge("cluster.breaker_open").Load(); got != 1 {
		t.Fatalf("cluster.breaker_open = %d, want 1", got)
	}
	if got := reg.Gauge("cluster.nodes_dead").Load(); got != 1 {
		t.Fatalf("cluster.nodes_dead = %d, want 1", got)
	}
}

func TestNewRejectsBadConfigs(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty node list accepted")
	}
	if _, err := New(Config{Self: "http://me", Nodes: []string{"http://other"}}); err == nil {
		t.Fatal("self outside the node list accepted")
	}
}

// setHealth force-sets a node's health, as a run of probes would.
func setHealth(c *Cluster, url string, h Health) {
	n := c.node(url)
	n.mu.Lock()
	n.health = h
	n.mu.Unlock()
	c.publishHealthGauges()
}
