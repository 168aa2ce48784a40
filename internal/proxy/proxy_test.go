package proxy

import (
	"context"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"soemt/internal/serve"
	"soemt/internal/sim"
)

// TestProxyFastTierWalksEveryCandidate: with the key's owner and its
// first successor refusing connections, a tier=fast request must still
// reach the third node, as an exact submission does.
func TestProxyFastTierWalksEveryCandidate(t *testing.T) {
	nodes := startNodes(t, 3)
	p, pts := startProxy(t, nodeURLs(nodes), nil, Config{})
	rq := serve.RunRequest{Pair: "gcc:eon", F: 0.5, Scale: "tiny", Tier: serve.TierFast}
	key, err := rq.RouteKey()
	if err != nil {
		t.Fatal(err)
	}
	cands := p.cl.Candidates(key)
	for _, nd := range nodes {
		if nd.url() == cands[0] || nd.url() == cands[1] {
			nd.ts.Close()
		}
	}

	if code, body, _ := postJSON(t, pts.URL+"/v1/run", rq); code != http.StatusOK {
		t.Fatalf("fast run via proxy: status %d (%v), want 200 from the third candidate", code, body)
	}
	rq.Tier = serve.TierExact
	if code, body, _ := postJSON(t, pts.URL+"/v1/run", rq); code != http.StatusAccepted {
		t.Fatalf("exact run via proxy: status %d (%v), want 202 from the third candidate", code, body)
	}
	waitIdle(nodes)
}

func TestProxyShedsWithRetryAfterWhenFleetUnreachable(t *testing.T) {
	nodes := startNodes(t, 1)
	p, pts := startProxy(t, nodeURLs(nodes), nil, Config{})
	nodes[0].ts.Close() // the whole fleet refuses connections

	rq := serve.RunRequest{Pair: "gcc:eon", F: 0.5, Scale: "tiny", Tier: serve.TierExact}
	var sawBreakerShed bool
	for i := 0; i < 5; i++ {
		code, body, hdr := postJSON(t, pts.URL+"/v1/run", rq)
		if code != http.StatusServiceUnavailable {
			t.Fatalf("request %d: status %d (%v), want 503", i, code, body)
		}
		ra, err := strconv.Atoi(hdr.Get("Retry-After"))
		if err != nil || ra < 1 {
			t.Fatalf("request %d: Retry-After %q, want integer >= 1", i, hdr.Get("Retry-After"))
		}
		if strings.Contains(body["error"].(string), "breaker open") {
			sawBreakerShed = true
		}
	}
	// Three connection failures open the breaker, so the later
	// rejections must come from the breaker without dialing.
	if !sawBreakerShed {
		t.Fatal("breaker never tripped across 5 failed submissions")
	}
	if got := p.reg.Counter("proxy.shed").Load(); got != 5 {
		t.Fatalf("proxy.shed = %d, want 5", got)
	}
}

func TestProxyFansJobLookupAcrossNodes(t *testing.T) {
	nodes := startNodes(t, 3)
	_, pts := startProxy(t, nodeURLs(nodes), nil, Config{})

	rq := serve.RunRequest{Pair: "gcc:eon", F: 0.25, Scale: "tiny", Tier: serve.TierExact}
	code, body, _ := postJSON(t, pts.URL+"/v1/run", rq)
	if code != http.StatusAccepted {
		t.Fatalf("submission status %d", code)
	}
	id := body["id"].(string)
	if !strings.Contains(id, "-job-") {
		t.Fatalf("job id %q is not node-scoped", id)
	}
	waitIdle(nodes)

	code, job := getJSON(t, pts.URL+"/v1/jobs/"+id)
	if code != http.StatusOK || job["state"] != serve.StateDone {
		t.Fatalf("fanned-out lookup: %d %v, want 200 done", code, job["state"])
	}
	if code, _ := getJSON(t, pts.URL+"/v1/jobs/n9-job-000042"); code != http.StatusNotFound {
		t.Fatalf("unknown id lookup = %d, want 404", code)
	}
}

func TestProxyPropagates429WithRetryAfter(t *testing.T) {
	// One saturated node: queue depth 1, one worker, slow simulations.
	nodes := startNodesWith(t, 1,
		func(i int) serve.Config {
			return serve.Config{NodeName: "n1", QueueDepth: 1, Workers: 1}
		},
		func(ctx context.Context, spec sim.Spec) (*sim.Result, error) {
			select {
			case <-time.After(500 * time.Millisecond):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return chaosResult(spec), nil
		})
	_, pts := startProxy(t, nodeURLs(nodes), nil, Config{})

	first := serve.RunRequest{Pair: "gcc:eon", F: 0.1, Scale: "tiny", Tier: serve.TierExact}
	second := serve.RunRequest{Pair: "gcc:eon", F: 0.2, Scale: "tiny", Tier: serve.TierExact}
	if code, _, _ := postJSON(t, pts.URL+"/v1/run", first); code != http.StatusAccepted {
		t.Fatalf("first submission status %d", code)
	}
	code, _, hdr := postJSON(t, pts.URL+"/v1/run", second)
	if code != http.StatusTooManyRequests {
		t.Fatalf("second submission status %d, want 429 (queue full)", code)
	}
	if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("429 Retry-After %q, want integer >= 1", hdr.Get("Retry-After"))
	}
	waitIdle(nodes)
}

func TestProxyStatusExportsNodesAndCounters(t *testing.T) {
	nodes := startNodes(t, 2)
	_, pts := startProxy(t, nodeURLs(nodes), nil, Config{})

	if code, _, _ := postJSON(t, pts.URL+"/v1/run",
		serve.RunRequest{Pair: "gcc:eon", F: 0.4, Scale: "tiny", Tier: serve.TierExact}); code != http.StatusAccepted {
		t.Fatal("seed submission failed")
	}
	waitIdle(nodes)

	code, st := getJSON(t, pts.URL+"/status")
	if code != http.StatusOK {
		t.Fatalf("/status = %d", code)
	}
	if got := len(st["nodes"].([]any)); got != 2 {
		t.Fatalf("/status lists %d nodes, want 2", got)
	}
	counters := st["proxy"].(map[string]any)
	for _, name := range []string{"proxy.requests", "proxy.forwarded", "proxy.retries", "proxy.shed"} {
		if _, ok := counters[name]; !ok {
			t.Fatalf("/status missing counter %s (have %v)", name, counters)
		}
	}
	if counters["proxy.forwarded"].(float64) < 1 {
		t.Fatalf("proxy.forwarded = %v, want >= 1", counters["proxy.forwarded"])
	}

	// /metrics carries the same registry in text form.
	resp, err := http.Get(pts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	text := string(buf[:n])
	for _, name := range []string{"proxy.forwarded", "cluster.breaker_open"} {
		if !strings.Contains(text, name) {
			t.Fatalf("/metrics missing %s:\n%s", name, text)
		}
	}
}

func TestProxyRejectsOversizedAndMalformedBodies(t *testing.T) {
	nodes := startNodes(t, 1)
	_, pts := startProxy(t, nodeURLs(nodes), nil, Config{MaxBodyBytes: 512})

	big := `{"pair":"` + strings.Repeat("x", 2048) + `"}`
	resp, err := http.Post(pts.URL+"/v1/run", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413", resp.StatusCode)
	}

	resp, err = http.Post(pts.URL+"/v1/run", "application/json", strings.NewReader(`{"pair":"nope"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec = %d, want 400 from the gateway (no candidate walk)", resp.StatusCode)
	}
}
