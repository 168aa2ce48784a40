package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"soemt/internal/obs"
	"soemt/internal/sim"
)

// stubResult fabricates a deterministic result shaped like the spec
// (one ThreadResult per requested thread).
func stubResult(spec sim.Spec) *sim.Result {
	res := &sim.Result{WallCycles: 1_000, IPCTotal: float64(len(spec.Threads))}
	for _, th := range spec.Threads {
		res.Threads = append(res.Threads, sim.ThreadResult{Name: th.Profile.Name, IPC: 1})
	}
	return res
}

// newTestServer builds a server with a stubbed simulation backend
// behind the real cache/coalescer/queue, plus an httptest frontend.
func newTestServer(t *testing.T, cfg Config, stub func(context.Context, sim.Spec) (*sim.Result, error)) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stub != nil {
		s.Cache().SetRunFunc(stub)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(dctx)
	})
	return s, ts
}

func post(t *testing.T, url string, body any) (int, map[string]any, http.Header) {
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
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, m, resp.Header
}

func get(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, m
}

func counter(s *Server, name string) uint64 { return s.Observability().Counter(name).Load() }

// The headline invariant: 50 concurrent identical submissions cost
// exactly one simulation. Every request either coalesced onto a live
// job before the queue or became a job whose execution was served by a
// cache layer — the split between the two is timing-dependent, the sum
// is not.
func TestCoalescerDedupsIdenticalRuns(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 64, Workers: 4},
		func(ctx context.Context, spec sim.Spec) (*sim.Result, error) {
			select {
			case <-time.After(30 * time.Millisecond):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return stubResult(spec), nil
		})

	const n = 50
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body, _ := post(t, ts.URL+"/v1/run",
				RunRequest{Pair: "gcc:eon", F: 0.5, Scale: "tiny"})
			if code != http.StatusAccepted {
				t.Errorf("request %d: status %d, want 202", i, code)
				return
			}
			ids[i] = body["id"].(string)
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	s.WaitIdle()

	if got := counter(s, "runner.runs_started"); got != 1 {
		t.Fatalf("runs_started = %d, want exactly 1 simulation for %d identical requests", got, n)
	}
	dedup := counter(s, "serve.coalesced") +
		counter(s, "cache.mem_hits") + counter(s, "cache.dedup_hits") + counter(s, "cache.disk_hits")
	if dedup != n-1 {
		t.Fatalf("coalesced+cache hits = %d, want %d (one per duplicate request)", dedup, n-1)
	}
	for i, id := range ids {
		code, body := get(t, ts.URL+"/v1/jobs/"+id)
		if code != http.StatusOK || body["state"] != StateDone {
			t.Fatalf("request %d: job %s = %d %v, want done", i, id, code, body["state"])
		}
		if body["result"] == nil {
			t.Fatalf("job %s finished without a result", id)
		}
	}
}

func TestDistinctSpecsDoNotCoalesce(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 8, Workers: 2},
		func(ctx context.Context, spec sim.Spec) (*sim.Result, error) {
			return stubResult(spec), nil
		})
	for _, rq := range []RunRequest{
		{Bench: "gcc", Scale: "tiny"},
		{Bench: "eon", Scale: "tiny"},
	} {
		if code, _, _ := post(t, ts.URL+"/v1/run", rq); code != http.StatusAccepted {
			t.Fatalf("submit %+v: status %d", rq, code)
		}
	}
	s.WaitIdle()
	if got := counter(s, "runner.runs_started"); got != 2 {
		t.Fatalf("runs_started = %d, want 2 for two distinct specs", got)
	}
	if got := counter(s, "serve.coalesced"); got != 0 {
		t.Fatalf("serve.coalesced = %d, want 0", got)
	}
}

// Admission is bounded by pending jobs, so the 429 is deterministic:
// with QueueDepth=2 and a backend that cannot finish, the third
// submission must bounce whether or not the first two hold worker
// slots yet.
func TestQueueFullReturns429(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{QueueDepth: 2, Workers: 1},
		func(ctx context.Context, spec sim.Spec) (*sim.Result, error) {
			select {
			case <-release:
				return stubResult(spec), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		})

	for i, bench := range []string{"gcc", "eon"} {
		if code, _, _ := post(t, ts.URL+"/v1/run", RunRequest{Bench: bench, Scale: "tiny"}); code != http.StatusAccepted {
			t.Fatalf("submission %d: status %d, want 202", i, code)
		}
	}
	code, body, hdr := post(t, ts.URL+"/v1/run", RunRequest{Bench: "swim", Scale: "tiny"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("third submission: status %d (%v), want 429", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After header")
	}
	if got := counter(s, "serve.jobs_rejected"); got != 1 {
		t.Fatalf("serve.jobs_rejected = %d, want 1", got)
	}

	close(release)
	s.WaitIdle()
	// The slots freed: a new submission is admitted again.
	if code, _, _ := post(t, ts.URL+"/v1/run", RunRequest{Bench: "mcf", Scale: "tiny"}); code != http.StatusAccepted {
		t.Fatalf("post-release submission: status %d, want 202", code)
	}
	s.WaitIdle()
}

// serve.queue.depth counts accepted jobs waiting for a worker slot:
// with one worker wedged on the first of three distinct jobs, two
// wait; once the backend is released and the server idles, none do.
func TestQueueDepthCountsJobsWaitingForASlot(t *testing.T) {
	started := make(chan struct{}, 3)
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{QueueDepth: 8, Workers: 1},
		func(ctx context.Context, spec sim.Spec) (*sim.Result, error) {
			started <- struct{}{}
			select {
			case <-release:
				return stubResult(spec), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		})
	depth := s.Observability().Gauge("serve.queue.depth")

	for i, bench := range []string{"gcc", "eon", "swim"} {
		if code, _, _ := post(t, ts.URL+"/v1/run", RunRequest{Bench: bench, Scale: "tiny", Tier: TierExact}); code != http.StatusAccepted {
			t.Fatalf("submission %d: status %d, want 202", i, code)
		}
	}
	<-started
	if got := depth.Load(); got != 2 {
		t.Fatalf("serve.queue.depth = %d with one job running and two waiting, want 2", got)
	}

	close(release)
	s.WaitIdle()
	if got := depth.Load(); got != 0 {
		t.Fatalf("serve.queue.depth = %d after WaitIdle, want 0", got)
	}
}

// Drain under in-flight load: every accepted job — running or still
// queued — reaches "done"; nothing is lost, and new submissions are
// refused with 503 while the drain runs.
func TestDrainLosesNoAcceptedJob(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 64, Workers: 2},
		func(ctx context.Context, spec sim.Spec) (*sim.Result, error) {
			select {
			case <-time.After(15 * time.Millisecond):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return stubResult(spec), nil
		})

	var ids []string
	for i := 0; i < 20; i++ {
		rq := RunRequest{Pair: "gcc:eon", F: 0.5, Scale: "tiny"} // 10 shared...
		if i%2 == 0 {
			rq.F = float64(i) / 40 // ...and 10 distinct enforcement levels
		}
		code, body, _ := post(t, ts.URL+"/v1/run", rq)
		if code != http.StatusAccepted {
			t.Fatalf("submission %d: status %d, want 202", i, code)
		}
		ids = append(ids, body["id"].(string))
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		j, ok := s.job(id)
		if !ok {
			t.Fatalf("accepted job %s vanished", id)
		}
		if st := j.snapshotState(); st != StateDone {
			t.Fatalf("accepted job %s drained into %q, want done", id, st)
		}
	}
	if got := counter(s, "serve.jobs_failed"); got != 0 {
		t.Fatalf("serve.jobs_failed = %d after clean drain", got)
	}

	code, _, hdr := post(t, ts.URL+"/v1/run", RunRequest{Bench: "gcc", Scale: "tiny"})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submission while draining: status %d, want 503", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("503 carries no Retry-After header")
	}
}

// A drain whose deadline already passed cancels in-flight work: jobs
// settle in "interrupted" (not lost, not stuck), and an interrupted
// sweep checkpoints the persistent cache through the cli interrupt
// marker so the next process resumes from completed simulations.
func TestDrainDeadlineInterruptsAndCheckpoints(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{QueueDepth: 8, Workers: 1, CacheDir: dir},
		func(ctx context.Context, spec sim.Spec) (*sim.Result, error) {
			<-ctx.Done() // wedge until the drain cancels execution
			return nil, ctx.Err()
		})

	code, body, _ := post(t, ts.URL+"/v1/sweep", SweepRequest{Pairs: []string{"gcc:eon"}, Scale: "tiny"})
	if code != http.StatusAccepted {
		t.Fatalf("sweep submission: status %d, want 202", code)
	}
	id := body["id"].(string)

	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Drain(expired); err == nil {
		t.Fatal("drain with an expired deadline reported a clean drain")
	}
	j, ok := s.job(id)
	if !ok {
		t.Fatalf("job %s vanished", id)
	}
	if st := j.snapshotState(); st != StateInterrupted {
		t.Fatalf("job state = %q, want interrupted", st)
	}
	if note, ok := s.Cache().Interrupted(); !ok {
		t.Fatal("interrupted sweep left no cache checkpoint marker")
	} else if want := "drain cancelled " + id; !bytes.Contains([]byte(note), []byte(want)) {
		t.Fatalf("marker note %q does not mention %q", note, want)
	}
}

func TestSweepJobProducesMatrix(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 8, Workers: 2},
		func(ctx context.Context, spec sim.Spec) (*sim.Result, error) {
			return stubResult(spec), nil
		})
	code, body, _ := post(t, ts.URL+"/v1/sweep", SweepRequest{Pairs: []string{"gcc:eon"}, Scale: "tiny"})
	if code != http.StatusAccepted {
		t.Fatalf("sweep submission: status %d, want 202", code)
	}
	s.WaitIdle()

	code, jb := get(t, ts.URL+"/v1/jobs/"+body["id"].(string))
	if code != http.StatusOK || jb["state"] != StateDone {
		t.Fatalf("sweep job = %d %v, want done", code, jb["state"])
	}
	res := jb["result"].(map[string]any)
	rows := res["rows"].([]any)
	if len(rows) != 1 {
		t.Fatalf("sweep produced %d rows, want 1", len(rows))
	}
	byF := rows[0].(map[string]any)["by_f"].(map[string]any)
	if len(byF) != 4 {
		t.Fatalf("row carries %d F levels, want 4 (got %v)", len(byF), byF)
	}
	// 2 ST references + 4 enforcement levels, all distinct specs.
	if got := counter(s, "runner.runs_started"); got != 6 {
		t.Fatalf("runs_started = %d, want 6", got)
	}
}

func TestTraceDownload(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 8, Workers: 1},
		func(ctx context.Context, spec sim.Spec) (*sim.Result, error) {
			if tr := spec.Obs.Tracer(); tr != nil {
				tr.Record(obs.Event{Cycle: 10, Kind: obs.KindSwitch, Cause: obs.CauseMiss, Thread: 0})
				tr.Record(obs.Event{Cycle: 20, Kind: obs.KindSwitch, Cause: obs.CauseQuota, Thread: 1})
			}
			return stubResult(spec), nil
		})
	code, body, _ := post(t, ts.URL+"/v1/run", RunRequest{Pair: "gcc:eon", F: 1, Scale: "tiny", Trace: true})
	if code != http.StatusAccepted {
		t.Fatalf("submission: status %d, want 202", code)
	}
	id := body["id"].(string)
	s.WaitIdle()

	_, jb := get(t, ts.URL+"/v1/jobs/"+id)
	traceURL, _ := jb["trace"].(string)
	if traceURL == "" {
		t.Fatalf("finished traced job advertises no trace URL: %v", jb)
	}
	resp, err := http.Get(ts.URL + traceURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace download: status %d", resp.StatusCode)
	}
	events, meta, err := obs.ReadChromeTraceMeta(resp.Body)
	if err != nil {
		t.Fatalf("parsing downloaded trace: %v", err)
	}
	if len(events) != 2 {
		t.Fatalf("trace carries %d events, want 2", len(events))
	}
	if len(meta.ThreadNames) != 2 || meta.ThreadNames[0] != "gcc" || meta.ThreadNames[1] != "eon" {
		t.Fatalf("trace thread names = %v, want [gcc eon]", meta.ThreadNames)
	}

	// An untraced job must 404 on the trace route.
	code, _, _ = post(t, ts.URL+"/v1/run", RunRequest{Bench: "gcc", Scale: "tiny"})
	if code != http.StatusAccepted {
		t.Fatalf("untraced submission: status %d", code)
	}
	s.WaitIdle()
	resp2, err := http.Get(ts.URL + "/v1/jobs/job-000002/trace")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("trace of untraced job: status %d, want 404", resp2.StatusCode)
	}
}

// TestTracedRunBypassesWarmCache is the regression test for the
// silent-no-trace bug: a "trace": true submission whose spec is
// already cached must still run a fresh simulation (cache hits record
// nothing), not return the cached result with an empty tracer and a
// 404 trace route.
func TestTracedRunBypassesWarmCache(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 8, Workers: 1},
		func(ctx context.Context, spec sim.Spec) (*sim.Result, error) {
			if tr := spec.Obs.Tracer(); tr != nil {
				tr.Record(obs.Event{Cycle: 5, Kind: obs.KindSwitch, Cause: obs.CauseMiss, Thread: 0})
			}
			return stubResult(spec), nil
		})

	// Warm the cache with the untraced twin.
	req := RunRequest{Pair: "gcc:eon", F: 0.5, Scale: "tiny"}
	code, _, _ := post(t, ts.URL+"/v1/run", req)
	if code != http.StatusAccepted {
		t.Fatalf("untraced submission: status %d, want 202", code)
	}
	s.WaitIdle()

	// The traced twin must simulate again and carry a trace.
	req.Trace = true
	code, body, _ := post(t, ts.URL+"/v1/run", req)
	if code != http.StatusAccepted {
		t.Fatalf("traced submission: status %d, want 202", code)
	}
	id := body["id"].(string)
	s.WaitIdle()

	if got := counter(s, "runner.runs_started"); got != 2 {
		t.Fatalf("runs_started = %d, want 2 (traced run must not be served from cache)", got)
	}
	_, jb := get(t, ts.URL+"/v1/jobs/"+id)
	if st := jb["state"]; st != StateDone {
		t.Fatalf("traced job state = %v, want done", st)
	}
	traceURL, _ := jb["trace"].(string)
	if traceURL == "" {
		t.Fatalf("traced job against a warm cache advertises no trace URL: %v", jb)
	}
	resp, err := http.Get(ts.URL + traceURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace download: status %d, want 200", resp.StatusCode)
	}
	events, _, err := obs.ReadChromeTraceMeta(resp.Body)
	if err != nil {
		t.Fatalf("parsing downloaded trace: %v", err)
	}
	if len(events) != 1 {
		t.Fatalf("trace carries %d events, want 1", len(events))
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 4, Workers: 1},
		func(ctx context.Context, spec sim.Spec) (*sim.Result, error) {
			return stubResult(spec), nil
		})
	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK || body["ok"] != true {
		t.Fatalf("healthz = %d %v", code, body)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	dump, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"serve.queue.capacity", "serve.queue.depth"} {
		if !bytes.Contains(dump, []byte(want)) {
			t.Fatalf("metrics dump lacks %s:\n%s", want, dump)
		}
	}

	if code, _, _ := post(t, ts.URL+"/v1/run", map[string]any{"nope": 1}); code != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d, want 400", code)
	}
	if code, _, _ := post(t, ts.URL+"/v1/run", RunRequest{}); code != http.StatusBadRequest {
		t.Fatalf("empty request: status %d, want 400", code)
	}
	if code, _ := get(t, ts.URL+"/v1/jobs/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", code)
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: status %d, want 503", code)
	}
}

// The service end-to-end against the real simulator (no stub): one
// tiny pair run, served twice — the second submission after completion
// must be a pure cache hit.
func TestRealSimulationEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation")
	}
	s, ts := newTestServer(t, Config{QueueDepth: 4, Workers: 2}, nil)
	rq := RunRequest{Pair: "gcc:eon", F: 0.5, Scale: "tiny"}
	code, body, _ := post(t, ts.URL+"/v1/run", rq)
	if code != http.StatusAccepted {
		t.Fatalf("submission: status %d", code)
	}
	s.WaitIdle()
	_, jb := get(t, ts.URL+"/v1/jobs/"+body["id"].(string))
	if jb["state"] != StateDone {
		t.Fatalf("job = %v (%v)", jb["state"], jb["error"])
	}
	res := jb["result"].(map[string]any)
	if ipc, _ := res["ipc_total"].(float64); ipc <= 0 {
		t.Fatalf("ipc_total = %v, want > 0", res["ipc_total"])
	}

	code, _, _ = post(t, ts.URL+"/v1/run", rq)
	if code != http.StatusAccepted {
		t.Fatalf("resubmission: status %d", code)
	}
	s.WaitIdle()
	if got := counter(s, "runner.runs_started"); got != 1 {
		t.Fatalf("runs_started = %d after resubmission, want 1 (cache hit)", got)
	}
	if fmt.Sprint(counter(s, "cache.mem_hits")) == "0" {
		t.Fatal("resubmission did not hit the memory cache")
	}
}
