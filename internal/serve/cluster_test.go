package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"soemt/internal/cluster"
	"soemt/internal/experiments"
	"soemt/internal/sim"
)

func quickStub(ctx context.Context, spec sim.Spec) (*sim.Result, error) {
	return stubResult(spec), nil
}

func TestOversizedBodyGets413(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 1024}, quickStub)

	// A syntactically fine JSON prefix that exceeds the bound mid-token:
	// the failure must surface as a deterministic 413, not whatever JSON
	// error the truncation happens to produce.
	big := `{"pair":"` + strings.Repeat("a", 4096) + `"}`
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413 (body %s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "1024") {
		t.Fatalf("413 body does not state the limit: %s", body)
	}

	// An in-bounds malformed body stays a plain 400.
	resp, err = http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", resp.StatusCode)
	}
}

func TestCacheEndpointServesVerifiedEntries(t *testing.T) {
	s, ts := newTestServer(t, Config{}, quickStub)

	rq := RunRequest{Pair: "gcc:eon", F: 0.5, Scale: "tiny"}
	spec, _, err := rq.buildSpec()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := experiments.Fingerprint(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Nothing cached yet: a well-formed key misses with 404, a malformed
	// one is rejected before touching the cache.
	if code, _ := get(t, ts.URL+"/v1/cache/"+fp); code != http.StatusNotFound {
		t.Fatalf("cold cache GET = %d, want 404", code)
	}
	for _, bad := range []string{"deadbeef", strings.Repeat("g", 64), strings.Repeat("A", 64)} {
		if code, _ := get(t, ts.URL+"/v1/cache/"+bad); code != http.StatusBadRequest {
			t.Fatalf("malformed key %q = %d, want 400", bad, code)
		}
	}

	if code, _, _ := post(t, ts.URL+"/v1/run", rq); code != http.StatusAccepted {
		t.Fatalf("run submission status %d", code)
	}
	s.WaitIdle()

	resp, err := http.Get(ts.URL + "/v1/cache/" + fp)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm cache GET = %d, want 200 (body %s)", resp.StatusCode, data)
	}
	res, err := experiments.DecodeVerifiedEntry(data, fp)
	if err != nil {
		t.Fatalf("served entry fails verification: %v", err)
	}
	if res.WallCycles != 1000 {
		t.Fatalf("served entry WallCycles = %d, want the stub's 1000", res.WallCycles)
	}
}

func TestNodeNameScopesJobIDs(t *testing.T) {
	s, ts := newTestServer(t, Config{
		NodeName:        "n1",
		JobRetention:    time.Nanosecond,
		MaxTerminalJobs: 1,
	}, quickStub)

	code, body, _ := post(t, ts.URL+"/v1/run", RunRequest{Pair: "gcc:eon", F: 0.5, Scale: "tiny"})
	if code != http.StatusAccepted {
		t.Fatalf("submission status %d", code)
	}
	id := body["id"].(string)
	if !strings.HasPrefix(id, "n1-job-") {
		t.Fatalf("job id %q lacks the node-name prefix", id)
	}
	s.WaitIdle()

	// Past the 1ns retention, our own id is recognizably evicted…
	if code, _ := get(t, ts.URL+"/v1/jobs/"+id); code != http.StatusGone {
		t.Fatalf("evicted own id = %d, want 410", code)
	}
	// …while ids from other nodes (or the bare pre-cluster format) were
	// never ours and stay 404, so a gateway fanning a lookup across the
	// fleet gets exactly one non-404 answer.
	for _, foreign := range []string{"n2-job-000001", "job-000001"} {
		if code, _ := get(t, ts.URL+"/v1/jobs/"+foreign); code != http.StatusNotFound {
			t.Fatalf("foreign id %q = %d, want 404", foreign, code)
		}
	}
}

// TestPeerCacheFillAcrossNodes is the tentpole's (b) end to end: two
// live servers, one cluster; the non-owner pulls the owner's verified
// entry instead of simulating.
func TestPeerCacheFillAcrossNodes(t *testing.T) {
	var runsA, runsB atomic.Int64
	sA, tsA := newTestServer(t, Config{NodeName: "a"},
		func(ctx context.Context, spec sim.Spec) (*sim.Result, error) {
			runsA.Add(1)
			return stubResult(spec), nil
		})
	sB, tsB := newTestServer(t, Config{NodeName: "b"},
		func(ctx context.Context, spec sim.Spec) (*sim.Result, error) {
			runsB.Add(1)
			return stubResult(spec), nil
		})
	nodes := []string{tsA.URL, tsB.URL}

	rq := RunRequest{Pair: "gcc:eon", F: 0.5, Scale: "tiny"}
	spec, _, err := rq.buildSpec()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := experiments.Fingerprint(spec)
	if err != nil {
		t.Fatal(err)
	}

	// The ring decides which server owns the key; the other one fills.
	owner, fillS, fillTS, fillRuns := sA, sB, tsB, &runsB
	ownerTS := tsA
	if cluster.NewRing(nodes).Owner(fp) == tsB.URL {
		owner, ownerTS, fillS, fillTS, fillRuns = sB, tsB, sA, tsA, &runsA
	}

	cl, err := cluster.New(cluster.Config{
		Self:     fillTS.URL,
		Nodes:    nodes,
		Registry: fillS.Observability(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.StopProbes)
	fillS.SetPeers(cl, 0)

	// Warm the owner, then submit the identical spec to the filler.
	if code, _, _ := post(t, ownerTS.URL+"/v1/run", rq); code != http.StatusAccepted {
		t.Fatalf("owner submission status %d", code)
	}
	owner.WaitIdle()
	fillRunsBefore := fillRuns.Load()

	code, body, _ := post(t, fillTS.URL+"/v1/run", rq)
	if code != http.StatusAccepted {
		t.Fatalf("filler submission status %d", code)
	}
	fillS.WaitIdle()

	if got := fillRuns.Load() - fillRunsBefore; got != 0 {
		t.Fatalf("filler simulated %d times behind a peer-fillable key, want 0", got)
	}
	if got := counter(fillS, "cluster.peer_fill_hits"); got != 1 {
		t.Fatalf("cluster.peer_fill_hits on filler = %d, want 1", got)
	}
	code, job := get(t, fillTS.URL+"/v1/jobs/"+body["id"].(string))
	if code != http.StatusOK || job["state"] != string(StateDone) {
		t.Fatalf("filler job = %d %v, want done", code, job["state"])
	}
}

// TestEvictionRacesInFlightWaiters hammers the PR 6 TTL/LRU eviction
// path (-job-retention, 410 Gone) from concurrent pollers while
// coalesced duplicates ride in-flight jobs — the scenario is only
// meaningful under -race. Every id the server handed out must resolve
// to 200 or 410, never 404 and never a torn read.
func TestEvictionRacesInFlightWaiters(t *testing.T) {
	s, ts := newTestServer(t, Config{
		QueueDepth:      64,
		Workers:         4,
		JobRetention:    time.Nanosecond, // evict terminal jobs immediately
		MaxTerminalJobs: 1,
	}, func(ctx context.Context, spec sim.Spec) (*sim.Result, error) {
		time.Sleep(2 * time.Millisecond) // keep jobs in flight while pollers run
		return stubResult(spec), nil
	})

	const specs = 8
	var wg sync.WaitGroup
	errs := make(chan error, specs*2)
	for i := 0; i < specs; i++ {
		f := 0.1 + 0.1*float64(i)
		for dup := 0; dup < 2; dup++ { // identical twins exercise coalescing
			wg.Add(1)
			go func() {
				defer wg.Done()
				code, body, _ := post(t, ts.URL+"/v1/run",
					RunRequest{Pair: "gcc:eon", F: f, Scale: "tiny"})
				if code != http.StatusAccepted {
					errs <- fmt.Errorf("submission status %d", code)
					return
				}
				id := body["id"].(string)
				deadline := time.Now().Add(5 * time.Second)
				for {
					code, _ := get(t, ts.URL+"/v1/jobs/"+id)
					switch code {
					case http.StatusOK:
						// Still retained; keep racing the evictor.
					case http.StatusGone:
						return // evicted after terminal: the expected end state
					default:
						errs <- fmt.Errorf("job %s: status %d, want 200 or 410", id, code)
						return
					}
					if time.Now().After(deadline) {
						errs <- fmt.Errorf("job %s never evicted", id)
						return
					}
					time.Sleep(500 * time.Microsecond)
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	s.WaitIdle()
	if got := counter(s, "serve.jobs_evicted"); got < 1 {
		t.Fatalf("serve.jobs_evicted = %d, want >= 1", got)
	}
}
