package proxy

// The cluster chaos suite (tentpole (d)): seeded network faults
// injected between the gateway (or a filling node) and the fleet,
// proving two properties under every fault:
//
//  1. correctness — every request that completes carries a correct
//     result (sha256-verified peer fill or local recomputation);
//  2. the dedup invariant — with pre-forward faults (drop, 5xx, node
//     death) the cluster-wide count of started simulations equals the
//     number of distinct specs, because a request that never reached
//     a node cannot have been executed there.
//
// Post-forward faults (corrupt, latency past the peer timeout) are
// caught by verification/timeout and degrade to a local run — those
// tests assert correctness and degradation, not the exact count.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"soemt/internal/cluster"
	"soemt/internal/faultinject"
	"soemt/internal/obs"
	"soemt/internal/serve"
	"soemt/internal/sim"
)

// testNode is one live soeserve member.
type testNode struct {
	s  *serve.Server
	ts *httptest.Server
	cl *cluster.Cluster
}

func (n *testNode) url() string { return n.ts.URL }

// startNodes boots n soeserve instances with stubbed simulations and
// joins them into one cluster (peer fill on, no probe loops — health
// stays Healthy and breakers carry the failure handling, keeping the
// tests timing-independent).
func startNodes(t *testing.T, n int) []*testNode {
	t.Helper()
	return startNodesWith(t, n,
		func(i int) serve.Config {
			return serve.Config{NodeName: fmt.Sprintf("n%d", i+1), Workers: 2}
		},
		func(ctx context.Context, spec sim.Spec) (*sim.Result, error) {
			return chaosResult(spec), nil
		})
}

// startNodesWith is startNodes with per-node config and a custom
// simulation stub.
func startNodesWith(t *testing.T, n int, mkCfg func(i int) serve.Config, stub func(context.Context, sim.Spec) (*sim.Result, error)) []*testNode {
	t.Helper()
	nodes := make([]*testNode, n)
	for i := range nodes {
		s, err := serve.NewServer(mkCfg(i))
		if err != nil {
			t.Fatal(err)
		}
		s.Cache().SetRunFunc(stub)
		nodes[i] = &testNode{s: s, ts: httptest.NewServer(s.Handler())}
	}
	urls := nodeURLs(nodes)
	for _, nd := range nodes {
		cl, err := cluster.New(cluster.Config{
			Self:     nd.url(),
			Nodes:    urls,
			Registry: nd.s.Observability(),
		})
		if err != nil {
			t.Fatal(err)
		}
		nd.cl = cl
		nd.s.SetPeers(cl, 500*time.Millisecond)
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.cl.StopProbes()
			nd.ts.Close()
			dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			nd.s.Drain(dctx)
			cancel()
		}
	})
	return nodes
}

func nodeURLs(nodes []*testNode) []string {
	urls := make([]string, len(nodes))
	for i, nd := range nodes {
		urls[i] = nd.url()
	}
	return urls
}

// startProxy builds a gateway over urls, with inj (may be nil)
// injected into the proxy→fleet transport.
func startProxy(t *testing.T, urls []string, inj *faultinject.Injector, cfg Config) (*Proxy, *httptest.Server) {
	t.Helper()
	reg := obs.NewRegistry()
	cl, err := cluster.New(cluster.Config{
		Nodes:     urls,
		Transport: faultinject.RoundTripper(nil, inj),
		Registry:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cluster = cl
	cfg.Registry = reg
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(p.Handler())
	t.Cleanup(func() {
		cl.StopProbes()
		ts.Close()
	})
	return p, ts
}

func chaosResult(spec sim.Spec) *sim.Result {
	res := &sim.Result{WallCycles: 1_000, IPCTotal: float64(len(spec.Threads))}
	for _, th := range spec.Threads {
		res.Threads = append(res.Threads, sim.ThreadResult{Name: th.Profile.Name, IPC: 1})
	}
	return res
}

func postJSON(t *testing.T, url string, body any) (int, map[string]any, http.Header) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decoding response from %s: %v", url, err)
	}
	return resp.StatusCode, m, resp.Header
}

// distinctSpecs builds n distinct exact-tier run requests.
func distinctSpecs(n int) []serve.RunRequest {
	out := make([]serve.RunRequest, n)
	for i := range out {
		out[i] = serve.RunRequest{
			Pair:  "gcc:eon",
			F:     0.05 + 0.05*float64(i),
			Scale: "tiny",
			Tier:  serve.TierExact,
		}
	}
	return out
}

func waitIdle(nodes []*testNode) {
	for _, nd := range nodes {
		nd.s.WaitIdle()
	}
}

// runsStarted sums the cluster-wide count of actually started
// simulations — the left side of the dedup invariant.
func runsStarted(nodes []*testNode) uint64 {
	var sum uint64
	for _, nd := range nodes {
		sum += nd.s.Observability().Counter("runner.runs_started").Load()
	}
	return sum
}

// TestClusterDedupInvariantFaultFree is the baseline: a 100-request
// burst of 10 distinct specs through the gateway costs the 3-node
// cluster exactly 10 simulations.
func TestClusterDedupInvariantFaultFree(t *testing.T) {
	nodes := startNodes(t, 3)
	_, pts := startProxy(t, nodeURLs(nodes), nil, Config{})

	specs := distinctSpecs(10)
	var wg sync.WaitGroup
	errs := make(chan error, 10*len(specs))
	for rep := 0; rep < 10; rep++ {
		for _, rq := range specs {
			wg.Add(1)
			go func(rq serve.RunRequest) {
				defer wg.Done()
				code, _, _ := postJSON(t, pts.URL+"/v1/run", rq)
				if code != http.StatusAccepted && code != http.StatusTooManyRequests {
					errs <- fmt.Errorf("status %d, want 202 or 429", code)
				}
			}(rq)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	waitIdle(nodes)

	if got := runsStarted(nodes); got != 10 {
		t.Fatalf("cluster ran %d simulations for 10 distinct specs, want exactly 10", got)
	}
}

// TestClusterDedupInvariantUnderPerHostDrop cuts the gateway's link
// to one node entirely (peer.drop@host fires before forwarding, so
// the node never sees a byte). Every request must still complete and
// the invariant stays exact: the dropped node ran nothing, its keys'
// successors ran each spec once.
func TestClusterDedupInvariantUnderPerHostDrop(t *testing.T) {
	nodes := startNodes(t, 3)
	victim := strings.TrimPrefix(nodes[0].url(), "http://")
	inj := faultinject.New(31).Arm(faultinject.SitePeerDrop+"@"+victim, faultinject.Plan{Every: 1})
	_, pts := startProxy(t, nodeURLs(nodes), inj, Config{})

	specs := distinctSpecs(10)
	for _, rq := range specs {
		for rep := 0; rep < 3; rep++ {
			code, _, _ := postJSON(t, pts.URL+"/v1/run", rq)
			if code != http.StatusAccepted {
				t.Fatalf("spec f=%.2f rep %d: status %d, want 202", rq.F, rep, code)
			}
		}
	}
	waitIdle(nodes)

	if got := nodes[0].s.Observability().Counter("runner.runs_started").Load(); got != 0 {
		t.Fatalf("unreachable node ran %d simulations, want 0 (drop fires pre-forward)", got)
	}
	if got := runsStarted(nodes); got != 10 {
		t.Fatalf("cluster ran %d simulations for 10 distinct specs, want exactly 10", got)
	}
}

// TestClusterDedupInvariantUnder5xx replaces one node's answers with
// injected 500s (synthesized before forwarding). The gateway must
// fail over; the sick node processes nothing; invariant exact.
func TestClusterDedupInvariantUnder5xx(t *testing.T) {
	nodes := startNodes(t, 3)
	victim := strings.TrimPrefix(nodes[1].url(), "http://")
	inj := faultinject.New(32).Arm(faultinject.SitePeer5xx+"@"+victim, faultinject.Plan{Every: 1})
	_, pts := startProxy(t, nodeURLs(nodes), inj, Config{})

	specs := distinctSpecs(8)
	for _, rq := range specs {
		code, _, _ := postJSON(t, pts.URL+"/v1/run", rq)
		if code != http.StatusAccepted {
			t.Fatalf("spec f=%.2f: status %d, want 202", rq.F, code)
		}
	}
	waitIdle(nodes)

	if got := nodes[1].s.Observability().Counter("runner.runs_started").Load(); got != 0 {
		t.Fatalf("5xx-shadowed node ran %d simulations, want 0", got)
	}
	if got := runsStarted(nodes); got != 8 {
		t.Fatalf("cluster ran %d simulations for 8 distinct specs, want exactly 8", got)
	}
}

// TestClusterSurvivesNodeDeathMidBurst kills a node between bursts:
// its keys fail over to deterministic successors, every request
// completes, and re-submitting the full spec set costs only the dead
// node's keys (already-owned keys are cache hits on the survivors).
func TestClusterSurvivesNodeDeathMidBurst(t *testing.T) {
	nodes := startNodes(t, 3)
	_, pts := startProxy(t, nodeURLs(nodes), nil, Config{})

	specs := distinctSpecs(10)
	for _, rq := range specs {
		if code, _, _ := postJSON(t, pts.URL+"/v1/run", rq); code != http.StatusAccepted {
			t.Fatalf("pre-kill: status %d, want 202", code)
		}
	}
	waitIdle(nodes)
	if got := runsStarted(nodes); got != 10 {
		t.Fatalf("pre-kill: %d simulations, want 10", got)
	}

	nodes[2].ts.Close() // kill one node: connections now refuse

	for _, rq := range specs {
		if code, _, _ := postJSON(t, pts.URL+"/v1/run", rq); code != http.StatusAccepted {
			t.Fatalf("post-kill: status %d, want 202", code)
		}
	}
	waitIdle(nodes[:2])

	// Survivors re-ran only what the dead node owned: total started
	// across ALL nodes is 10 + (dead node's keys), strictly < 20 unless
	// it owned everything, and the survivors hold a correct result for
	// every spec.
	total := runsStarted(nodes)
	dead := nodes[2].s.Observability().Counter("runner.runs_started").Load()
	if want := 10 + dead; total != want {
		t.Fatalf("post-kill: %d total simulations, want %d (10 + the dead node's %d)", total, want, dead)
	}
	for _, rq := range specs {
		key, err := rq.RouteKey()
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, nd := range nodes[:2] {
			if res, ok := nd.s.Cache().Get(key); ok && res.WallCycles == 1000 {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("spec f=%.2f has no correct result on any survivor", rq.F)
		}
	}
}

// TestPeerFillCorruptionDegradesToLocalRun injects response-body
// corruption into one node's peer-fill transport. Verification must
// reject every corrupted entry and the node must recompute locally —
// correct result, degradation counted, no error surfaced.
func TestPeerFillCorruptionDegradesToLocalRun(t *testing.T) {
	nodes := startNodes(t, 2)
	rq := serve.RunRequest{Pair: "gcc:eon", F: 0.5, Scale: "tiny", Tier: serve.TierExact}
	key, err := rq.RouteKey()
	if err != nil {
		t.Fatal(err)
	}
	owner, filler := nodes[0], nodes[1]
	if nodes[0].cl.Owner(key) == nodes[1].url() {
		owner, filler = nodes[1], nodes[0]
	}

	// Rewire the filler's cluster with a corrupting transport.
	inj := faultinject.New(77).Arm(faultinject.SitePeerCorrupt, faultinject.Plan{Every: 1})
	cl, err := cluster.New(cluster.Config{
		Self:      filler.url(),
		Nodes:     nodeURLs(nodes),
		Transport: faultinject.RoundTripper(nil, inj),
		Registry:  filler.s.Observability(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.StopProbes)
	filler.s.SetPeers(cl, 500*time.Millisecond)

	// Warm the owner directly, then submit to the filler directly.
	if code, _, _ := postJSON(t, owner.url()+"/v1/run", rq); code != http.StatusAccepted {
		t.Fatal("owner warmup failed")
	}
	owner.s.WaitIdle()
	code, body, _ := postJSON(t, filler.url()+"/v1/run", rq)
	if code != http.StatusAccepted {
		t.Fatalf("filler submission status %d", code)
	}
	filler.s.WaitIdle()

	if got := filler.s.Observability().Counter("cluster.peer_fill_errors").Load(); got < 1 {
		t.Fatalf("cluster.peer_fill_errors = %d, want >= 1 (corruption must be caught)", got)
	}
	if got := filler.s.Observability().Counter("runner.runs_started").Load(); got != 1 {
		t.Fatalf("filler ran %d simulations, want 1 (local recompute)", got)
	}
	code, job := getJSON(t, filler.url()+"/v1/jobs/"+body["id"].(string))
	if code != http.StatusOK || job["state"] != serve.StateDone {
		t.Fatalf("filler job: %d %v, want done", code, job["state"])
	}
	res, ok := filler.s.Cache().Get(key)
	if !ok || res.WallCycles != 1000 {
		t.Fatalf("filler result wrong after corrupt peer: ok=%v res=%+v", ok, res)
	}
}

// TestPeerFillSlowPeerDegradesToLocalRun injects latency beyond the
// peer timeout into the fill path: the fetch must time out and the
// node must simulate locally instead of stalling the job.
func TestPeerFillSlowPeerDegradesToLocalRun(t *testing.T) {
	nodes := startNodes(t, 2)
	rq := serve.RunRequest{Pair: "gcc:eon", F: 0.35, Scale: "tiny", Tier: serve.TierExact}
	key, err := rq.RouteKey()
	if err != nil {
		t.Fatal(err)
	}
	owner, filler := nodes[0], nodes[1]
	if nodes[0].cl.Owner(key) == nodes[1].url() {
		owner, filler = nodes[1], nodes[0]
	}

	inj := faultinject.New(78).Arm(faultinject.SitePeerLatency,
		faultinject.Plan{Every: 1, Delay: 300 * time.Millisecond})
	cl, err := cluster.New(cluster.Config{
		Self:      filler.url(),
		Nodes:     nodeURLs(nodes),
		Transport: faultinject.RoundTripper(nil, inj),
		Registry:  filler.s.Observability(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.StopProbes)
	filler.s.SetPeers(cl, 50*time.Millisecond) // peer budget far under the injected delay

	if code, _, _ := postJSON(t, owner.url()+"/v1/run", rq); code != http.StatusAccepted {
		t.Fatal("owner warmup failed")
	}
	owner.s.WaitIdle()
	start := time.Now()
	code, _, _ := postJSON(t, filler.url()+"/v1/run", rq)
	if code != http.StatusAccepted {
		t.Fatalf("filler submission status %d", code)
	}
	filler.s.WaitIdle()

	if got := filler.s.Observability().Counter("cluster.peer_fill_errors").Load(); got < 1 {
		t.Fatalf("cluster.peer_fill_errors = %d, want >= 1 (timeout must be caught)", got)
	}
	if got := filler.s.Observability().Counter("runner.runs_started").Load(); got != 1 {
		t.Fatalf("filler ran %d simulations, want 1 (local recompute)", got)
	}
	if res, ok := filler.s.Cache().Get(key); !ok || res.WallCycles != 1000 {
		t.Fatalf("filler result wrong after slow peer: ok=%v", ok)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("slow peer stalled the job for %s", elapsed)
	}
}

func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decoding response from %s: %v", url, err)
	}
	return resp.StatusCode, m
}
