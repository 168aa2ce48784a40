// Package proxy implements soeproxy, the thin cluster gateway: it
// routes submissions to soeserve nodes by content-addressed
// fingerprint (so identical specs land on — and coalesce at — one
// node), retries idempotent submissions on the next ring candidate
// when a node or its breaker fails, hedges synchronous tier=fast
// requests after a latency percentile, and sheds load with
// deterministic 429/503 + Retry-After instead of queueing.
//
// The gateway holds no state a restart could lose: routing is pure
// ring arithmetic, job ids are node-scoped (serve.Config.NodeName) so
// lookups fan out, and results live in the nodes' content-addressed
// caches. Retrying a submission elsewhere is safe for the same reason
// routing works at all — a spec's fingerprint names its result, so
// the worst case of a duplicate submission is a cache hit, never a
// conflicting answer (DESIGN.md §13).
package proxy

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"soemt/internal/cluster"
	"soemt/internal/obs"
	"soemt/internal/serve"
)

// Config parameterizes a Proxy. Cluster is required.
type Config struct {
	// Cluster is the node set to route over (Self is "" — the gateway
	// is a pure client and never routes to itself).
	Cluster *cluster.Cluster
	// MaxAttempts bounds how many ring candidates one submission may
	// try (first attempt included). 0 means every routable candidate.
	MaxAttempts int
	// HedgeAfter, when > 0, is the fixed latency after which a
	// tier=fast request is duplicated to the next candidate. 0 derives
	// the trigger adaptively from the observed p95 of recent fast
	// requests.
	HedgeAfter time.Duration
	// MaxBodyBytes bounds a submission body (413 beyond). Default 1 MiB
	// — must not exceed the nodes' own serve.Config.MaxBodyBytes or the
	// gateway would accept bodies its backends reject.
	MaxBodyBytes int64
	// Registry receives proxy.* metrics (nil allocates a private one).
	Registry *obs.Registry
	// Logf, if non-nil, receives gateway log lines.
	Logf func(format string, args ...interface{})
}

// hedge tuning: the adaptive trigger needs a few observations before
// p95 means anything; until then (and whenever clamping) these bounds
// apply.
const (
	hedgeMinSamples   = 8
	hedgeDefaultDelay = 75 * time.Millisecond
	hedgeMinDelay     = 5 * time.Millisecond
	hedgeMaxDelay     = 2 * time.Second
)

// Proxy is the gateway engine. Construct with New; all methods are
// safe for concurrent use.
type Proxy struct {
	cfg Config
	cl  *cluster.Cluster
	reg *obs.Registry

	lat latWindow // recent tier=fast latencies, feeds the hedge trigger

	requestsC  *obs.Counter
	forwardedC *obs.Counter
	retriesC   *obs.Counter
	hedgesC    *obs.Counter
	hedgeWinsC *obs.Counter
	shedC      *obs.Counter
}

// New builds a Proxy over cfg.Cluster.
func New(cfg Config) (*Proxy, error) {
	if cfg.Cluster == nil {
		return nil, errors.New("proxy: Cluster is required")
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Proxy{
		cfg: cfg,
		cl:  cfg.Cluster,
		reg: reg,

		requestsC:  reg.Counter("proxy.requests"),
		forwardedC: reg.Counter("proxy.forwarded"),
		retriesC:   reg.Counter("proxy.retries"),
		hedgesC:    reg.Counter("proxy.hedges"),
		hedgeWinsC: reg.Counter("proxy.hedge_wins"),
		shedC:      reg.Counter("proxy.shed"),
	}, nil
}

func (p *Proxy) logf(format string, args ...interface{}) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}

// Handler returns the gateway mux. It mirrors the soeserve surface
// (run/sweep/jobs/cache) plus the gateway's own status endpoints.
func (p *Proxy) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", func(w http.ResponseWriter, r *http.Request) { p.handleSubmit(w, r, "run") })
	mux.HandleFunc("POST /v1/sweep", func(w http.ResponseWriter, r *http.Request) { p.handleSubmit(w, r, "sweep") })
	mux.HandleFunc("GET /v1/jobs/{id}", p.handleFanout)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", p.handleFanout)
	mux.HandleFunc("GET /v1/cache/{fp}", p.handleCache)
	mux.HandleFunc("GET /status", p.handleStatus)
	mux.HandleFunc("GET /healthz", p.handleHealthz)
	mux.HandleFunc("GET /metrics", p.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// shed rejects a request the cluster cannot take right now, with a
// deterministic Retry-After derived from breaker state (floor 1s) —
// the gateway's promise to a saturated fleet mirrors the nodes' own
// 429 contract.
func (p *Proxy) shed(w http.ResponseWriter, status int, retryAfter time.Duration, format string, args ...interface{}) {
	secs := int(math.Ceil(retryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	p.shedC.Inc()
	writeError(w, status, format, args...)
}

// relay copies a backend response to the client verbatim.
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// discard drains and closes a response the gateway is not relaying,
// keeping the backend connection reusable.
func discard(resp *http.Response) {
	if resp == nil {
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}

// retryable reports whether an outcome should move on to the next
// ring candidate: transport/breaker errors and 5xx (including a
// draining node's 503 on the data path, which RoundTrip maps to a
// breaker failure). 429 is NOT retryable — a full queue on the keyed
// node means the spec's job already coalesces there, and submitting
// it elsewhere would re-simulate what that node will compute anyway.
func retryable(resp *http.Response, err error) bool {
	if err != nil {
		return true
	}
	return resp.StatusCode >= 500
}

func (p *Proxy) handleSubmit(w http.ResponseWriter, r *http.Request, kind string) {
	p.requestsC.Inc()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, p.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "reading request body: %v", err)
		return
	}

	var key, tier string
	switch kind {
	case "run":
		var rq serve.RunRequest
		if err := json.Unmarshal(body, &rq); err != nil {
			writeError(w, http.StatusBadRequest, "bad request body: %v", err)
			return
		}
		if key, err = rq.RouteKey(); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		tier = rq.Tier
	default:
		var rq serve.SweepRequest
		if err := json.Unmarshal(body, &rq); err != nil {
			writeError(w, http.StatusBadRequest, "bad request body: %v", err)
			return
		}
		if key, err = rq.RouteKey(); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		tier = rq.Tier
	}

	hdr := http.Header{"Content-Type": []string{"application/json"}}
	path := "/v1/" + kind
	if tier == serve.TierFast {
		// Synchronous, no job, no simulation: safe to duplicate, so the
		// latency tail is worth cutting with a hedge.
		resp, err := p.hedgedForward(r, key, path, body, hdr)
		p.finishForward(w, resp, err, key)
		return
	}
	resp, err := p.forward(r, key, path, body, hdr)
	p.finishForward(w, resp, err, key)
}

// finishForward renders a forward outcome: relay on success, 503 +
// Retry-After when the fleet had no answer.
func (p *Proxy) finishForward(w http.ResponseWriter, resp *http.Response, err error, key string) {
	if err != nil {
		var open *cluster.ErrBreakerOpen
		retry := time.Second
		if errors.As(err, &open) && open.RetryAfter > retry {
			retry = open.RetryAfter
		}
		p.shed(w, http.StatusServiceUnavailable, retry, "no node could take %.12s…: %v", key, err)
		return
	}
	p.forwardedC.Inc()
	relay(w, resp)
}

// forward walks key's candidate list: the ring owner first, then its
// deterministic successors, skipping dead nodes, stopping at the
// first conclusive answer. Each additional attempt counts as a retry.
// The returned error is the last attempt's (an *ErrBreakerOpen when
// every candidate was breaker-refused, so the caller can surface the
// soonest retry hint).
func (p *Proxy) forward(r *http.Request, key, path string, body []byte, hdr http.Header) (*http.Response, error) {
	cands := p.cl.Candidates(key)
	if len(cands) == 0 {
		return nil, cluster.ErrNoCandidates
	}
	if p.cfg.MaxAttempts > 0 && len(cands) > p.cfg.MaxAttempts {
		cands = cands[:p.cfg.MaxAttempts]
	}
	var lastResp *http.Response
	var lastErr error
	for i, node := range cands {
		if i > 0 {
			p.retriesC.Inc()
			p.logf("proxy: retrying %.12s… on %s", key, node)
		}
		resp, err := p.cl.RoundTrip(r.Context(), node, r.Method, path, body, hdr)
		if !retryable(resp, err) {
			return resp, nil
		}
		discard(lastResp)
		lastResp, lastErr = resp, err
	}
	if lastResp != nil {
		// Every candidate answered 5xx: relay the last one rather than
		// synthesizing — it carries the most useful error body.
		return lastResp, nil
	}
	return nil, lastErr
}

// hedgedForward is forward for tier=fast: launch on the owner, and if
// no answer lands within the hedge delay, duplicate to the next
// candidate and take whichever conclusive answer arrives first.
func (p *Proxy) hedgedForward(r *http.Request, key, path string, body []byte, hdr http.Header) (*http.Response, error) {
	cands := p.cl.Candidates(key)
	if len(cands) == 0 {
		return nil, cluster.ErrNoCandidates
	}
	if len(cands) == 1 {
		start := time.Now()
		resp, err := p.cl.RoundTrip(r.Context(), cands[0], r.Method, path, body, hdr)
		if err == nil && resp.StatusCode < 500 {
			p.lat.add(time.Since(start))
		}
		return resp, err
	}

	type outcome struct {
		idx  int
		resp *http.Response
		err  error
	}
	ch := make(chan outcome, 2)
	launched := 0
	launch := func(idx int) {
		launched++
		go func() {
			resp, err := p.cl.RoundTrip(r.Context(), cands[idx], r.Method, path, body, hdr)
			ch <- outcome{idx, resp, err}
		}()
	}
	// drainLater disposes outcomes still in flight after a winner.
	drainLater := func(n int) {
		if n <= 0 {
			return
		}
		go func() {
			for i := 0; i < n; i++ {
				discard((<-ch).resp)
			}
		}()
	}

	start := time.Now()
	launch(0)
	timer := time.NewTimer(p.hedgeDelay())
	defer timer.Stop()
	done := 0
	var lastErr error
	for {
		select {
		case o := <-ch:
			done++
			if !retryable(o.resp, o.err) {
				p.lat.add(time.Since(start))
				if o.idx > 0 {
					p.hedgeWinsC.Inc()
				}
				drainLater(launched - done)
				return o.resp, nil
			}
			discard(o.resp)
			if o.resp != nil {
				lastErr = fmt.Errorf("proxy: %s answered %s", cands[o.idx], o.resp.Status)
			} else {
				lastErr = o.err
			}
			if launched < 2 {
				// The primary failed outright: this is a failover retry,
				// not a latency hedge.
				p.retriesC.Inc()
				launch(1)
			} else if done == launched {
				return nil, lastErr
			}
		case <-timer.C:
			if launched < 2 {
				p.hedgesC.Inc()
				launch(1)
			}
		}
	}
}

// hedgeDelay returns the current tier=fast hedge trigger.
func (p *Proxy) hedgeDelay() time.Duration {
	if p.cfg.HedgeAfter > 0 {
		return p.cfg.HedgeAfter
	}
	d := p.lat.p95()
	if d <= 0 {
		return hedgeDefaultDelay
	}
	if d < hedgeMinDelay {
		return hedgeMinDelay
	}
	if d > hedgeMaxDelay {
		return hedgeMaxDelay
	}
	return d
}

// handleFanout answers job-scoped GETs by asking every routable node:
// ids are node-scoped, so exactly one node answers non-404 (a 410
// from the issuing node is an answer — the job existed and was
// evicted). Dead nodes are skipped; nodes that error are treated as
// 404 so one sick node cannot mask the owner's answer.
func (p *Proxy) handleFanout(w http.ResponseWriter, r *http.Request) {
	p.requestsC.Inc()
	for _, node := range p.cl.Candidates(r.URL.Path) {
		resp, err := p.cl.RoundTrip(r.Context(), node, http.MethodGet, r.URL.Path, nil, nil)
		if err != nil {
			continue
		}
		if resp.StatusCode == http.StatusNotFound || resp.StatusCode >= 500 {
			discard(resp)
			continue
		}
		p.forwardedC.Inc()
		relay(w, resp)
		return
	}
	writeError(w, http.StatusNotFound, "no node knows %s", r.URL.Path)
}

// handleCache routes a cache read to the fingerprint's owner, like
// the nodes' own peer fills do.
func (p *Proxy) handleCache(w http.ResponseWriter, r *http.Request) {
	p.requestsC.Inc()
	resp, err := p.forward(r, r.PathValue("fp"), r.URL.Path, nil, nil)
	p.finishForward(w, resp, err, r.PathValue("fp"))
}

func (p *Proxy) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, p.Status())
}

// Status is the machine-readable gateway state behind GET /status and
// `soeproxy -status`.
func (p *Proxy) Status() map[string]any {
	counters := map[string]uint64{}
	for _, name := range []string{
		"proxy.requests", "proxy.forwarded", "proxy.retries",
		"proxy.hedges", "proxy.hedge_wins", "proxy.shed",
	} {
		counters[name] = p.reg.Counter(name).Load()
	}
	names := make([]string, 0, len(counters))
	for n := range counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return map[string]any{
		"nodes":          p.cl.Snapshot(),
		"proxy":          counters,
		"hedge_after_ms": p.hedgeDelay().Milliseconds(),
	}
}

func (p *Proxy) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

func (p *Proxy) handleMetrics(w http.ResponseWriter, r *http.Request) {
	p.cl.Snapshot() // refresh cluster.* gauges before the dump
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if _, err := p.reg.WriteTo(w); err != nil {
		p.logf("metrics dump: %v", err)
	}
}

// latWindow is a fixed ring of recent latencies with a lock cheap
// enough for the request path.
type latWindow struct {
	mu  sync.Mutex
	buf [64]time.Duration
	n   int // total observations (buf index = n % len)
}

func (l *latWindow) add(d time.Duration) {
	l.mu.Lock()
	l.buf[l.n%len(l.buf)] = d
	l.n++
	l.mu.Unlock()
}

// p95 returns the window's 95th percentile, or 0 with fewer than
// hedgeMinSamples observations (not enough signal to hedge on).
func (l *latWindow) p95() time.Duration {
	l.mu.Lock()
	size := l.n
	if size > len(l.buf) {
		size = len(l.buf)
	}
	samples := make([]time.Duration, size)
	copy(samples, l.buf[:size])
	l.mu.Unlock()
	if size < hedgeMinSamples {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[(size*95)/100]
}
