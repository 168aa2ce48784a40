package serve

import (
	"context"
	"math"
	"net/http"
	"testing"
	"time"

	"soemt/internal/model"
	"soemt/internal/sim"
)

// failingStub is a backend that must never run: the fast tier's whole
// point is answering without the cycle-accurate engine.
func failingStub(t *testing.T) func(context.Context, sim.Spec) (*sim.Result, error) {
	return func(ctx context.Context, spec sim.Spec) (*sim.Result, error) {
		t.Error("fast tier invoked the simulation backend")
		return stubResult(spec), nil
	}
}

// TestFastTierAnswersWithoutSimulation: tier=fast is synchronous (200,
// not 202), carries the analytical fidelity marker and error bars, and
// leaves every engine counter untouched.
func TestFastTierAnswersWithoutSimulation(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 4, Workers: 1}, failingStub(t))

	rq := RunRequest{Pair: "gcc:eon", F: 0.5, Scale: "tiny", Tier: TierFast}
	for i := 0; i < 5; i++ {
		code, body, _ := post(t, ts.URL+"/v1/run", rq)
		if code != http.StatusOK {
			t.Fatalf("fast run %d: status %d (%v), want 200", i, code, body)
		}
		if body["fidelity"] != FidelityAnalytical {
			t.Fatalf("fast run fidelity = %v, want analytical", body["fidelity"])
		}
		if ipc, _ := body["ipc_total"].(float64); ipc <= 0 || math.IsNaN(ipc) {
			t.Fatalf("fast run ipc_total = %v", body["ipc_total"])
		}
		if bar, _ := body["err_ipc_pc"].(float64); bar <= 0 {
			t.Fatalf("fast answer carries no IPC error bar: %v", body)
		}
	}

	// A single-thread reference answer.
	code, body, _ := post(t, ts.URL+"/v1/run", RunRequest{Bench: "swim", Scale: "tiny", Tier: TierFast})
	if code != http.StatusOK || body["fidelity"] != FidelityAnalytical {
		t.Fatalf("fast bench = %d %v", code, body)
	}

	// And an analytical sweep matrix.
	code, body, _ = post(t, ts.URL+"/v1/sweep", SweepRequest{Pairs: []string{"gcc:eon", "swim:mcf"}, Tier: TierFast})
	if code != http.StatusOK {
		t.Fatalf("fast sweep: status %d (%v), want 200", code, body)
	}
	rows := body["rows"].([]any)
	if len(rows) != 2 {
		t.Fatalf("fast sweep rows = %d, want 2", len(rows))
	}
	if byF := rows[0].(map[string]any)["by_f"].(map[string]any); len(byF) != 4 {
		t.Fatalf("fast sweep row carries %d F levels, want 4", len(byF))
	}

	// No simulation, no job: the engine-side counters must be zero.
	for _, name := range []string{"runner.runs_started", "serve.jobs_accepted", "serve.jobs_completed"} {
		if got := counter(s, name); got != 0 {
			t.Errorf("%s = %d after fast-only traffic, want 0", name, got)
		}
	}
	if got := counter(s, "serve.fast.answers"); got != 7 {
		t.Errorf("serve.fast.answers = %d, want 7", got)
	}
	if got := counter(s, "serve.fast.cache_hits"); got < 4 {
		t.Errorf("serve.fast.cache_hits = %d, want >= 4 for repeated identical runs", got)
	}

	// Tier interactions that must fail fast.
	if code, _, _ := post(t, ts.URL+"/v1/run", RunRequest{Pair: "gcc:eon", Tier: "warp"}); code != http.StatusBadRequest {
		t.Errorf("unknown tier: status %d, want 400", code)
	}
	if code, _, _ := post(t, ts.URL+"/v1/run", RunRequest{Pair: "gcc:eon", Tier: TierFast, Trace: true}); code != http.StatusBadRequest {
		t.Errorf("fast+trace: status %d, want 400", code)
	}
}

// TestAutoTierRefinesInPlace: tier=auto returns the analytical answer
// in the 202 body, the job serves it while the simulation runs, and
// GET /v1/jobs/{id} flips to fidelity=exact with the simulated result
// once the engine finishes — the observe–predict–refine contract.
func TestAutoTierRefinesInPlace(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{QueueDepth: 4, Workers: 1},
		func(ctx context.Context, spec sim.Spec) (*sim.Result, error) {
			select {
			case <-release:
				return stubResult(spec), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		})

	code, body, _ := post(t, ts.URL+"/v1/run", RunRequest{Pair: "gcc:eon", F: 0.5, Scale: "tiny", Tier: TierAuto})
	if code != http.StatusAccepted {
		t.Fatalf("auto run: status %d, want 202", code)
	}
	if body["fidelity"] != FidelityAnalytical || body["result"] == nil {
		t.Fatalf("202 body lacks the fast answer: %v", body)
	}
	id := body["id"].(string)

	// While the exact simulation is wedged, the job already serves the
	// analytical answer.
	code, jb := get(t, ts.URL+"/v1/jobs/"+id)
	if code != http.StatusOK || jb["fidelity"] != FidelityAnalytical {
		t.Fatalf("in-flight auto job = %d fidelity %v, want analytical", code, jb["fidelity"])
	}
	res := jb["result"].(map[string]any)
	if res["fidelity"] != FidelityAnalytical {
		t.Fatalf("in-flight result payload fidelity = %v", res["fidelity"])
	}

	close(release)
	s.WaitIdle()

	_, jb = get(t, ts.URL+"/v1/jobs/"+id)
	if jb["state"] != StateDone || jb["fidelity"] != FidelityExact {
		t.Fatalf("refined auto job = state %v fidelity %v, want done/exact", jb["state"], jb["fidelity"])
	}
	res = jb["result"].(map[string]any)
	if _, isFast := res["err_ipc_pc"]; isFast {
		t.Fatalf("refined result still carries analytical error bars: %v", res)
	}
	if res["fingerprint"] == "" {
		t.Fatalf("refined result is not the simulated payload: %v", res)
	}
	if got := counter(s, "runner.runs_started"); got != 1 {
		t.Errorf("runs_started = %d, want 1", got)
	}
	if got := counter(s, "serve.fast.answers"); got != 1 {
		t.Errorf("serve.fast.answers = %d, want 1", got)
	}
}

// TestTerminalJobEviction is the regression test for the unbounded job
// map: under a burst of distinct jobs, retained terminal jobs must stay
// within MaxTerminalJobs, and an evicted id must answer 410 Gone (a
// never-issued id stays 404).
func TestTerminalJobEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 64, Workers: 2, MaxTerminalJobs: 4, JobRetention: time.Hour},
		func(ctx context.Context, spec sim.Spec) (*sim.Result, error) {
			return stubResult(spec), nil
		})

	const burst = 20
	ids := make([]string, burst)
	for i := 0; i < burst; i++ {
		// Distinct enforcement levels: no coalescing, 20 real jobs.
		code, body, _ := post(t, ts.URL+"/v1/run",
			RunRequest{Pair: "gcc:eon", F: float64(i) / (2 * burst), Scale: "tiny", Tier: TierExact})
		if code != http.StatusAccepted {
			t.Fatalf("submission %d: status %d, want 202", i, code)
		}
		ids[i] = body["id"].(string)
	}
	s.WaitIdle()
	// Trigger eviction of the final stragglers (finish evicts as jobs
	// land, submit-side eviction handles quiet periods).
	code, _, _ := post(t, ts.URL+"/v1/run", RunRequest{Bench: "gcc", Scale: "tiny", Tier: TierExact})
	if code != http.StatusAccepted {
		t.Fatalf("trailing submission: status %d", code)
	}
	s.WaitIdle()

	s.mu.Lock()
	retained := len(s.jobs)
	s.mu.Unlock()
	if retained > s.cfg.MaxTerminalJobs {
		t.Fatalf("job map retains %d jobs, bound is %d", retained, s.cfg.MaxTerminalJobs)
	}
	if got := counter(s, "serve.jobs_evicted"); got < burst-4 {
		t.Errorf("serve.jobs_evicted = %d, want >= %d", got, burst-4)
	}

	// The oldest job of the burst is long evicted: deterministic 410.
	if code, body := get(t, ts.URL+"/v1/jobs/"+ids[0]); code != http.StatusGone {
		t.Fatalf("evicted job: status %d (%v), want 410", code, body)
	}
	// Ids never issued stay 404.
	if code, _ := get(t, ts.URL+"/v1/jobs/job-999999"); code != http.StatusNotFound {
		t.Fatalf("unissued job id: status %d, want 404", code)
	}
	if code, _ := get(t, ts.URL+"/v1/jobs/banana"); code != http.StatusNotFound {
		t.Fatalf("malformed job id: status %d, want 404", code)
	}
}

// TestJobRetentionTTL: terminal jobs past the retention window are
// evicted on the next admission even when the size bound is far away.
func TestJobRetentionTTL(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 8, Workers: 1, JobRetention: time.Millisecond},
		func(ctx context.Context, spec sim.Spec) (*sim.Result, error) {
			return stubResult(spec), nil
		})
	code, body, _ := post(t, ts.URL+"/v1/run", RunRequest{Bench: "gcc", Scale: "tiny", Tier: TierExact})
	if code != http.StatusAccepted {
		t.Fatalf("submission: status %d", code)
	}
	id := body["id"].(string)
	s.WaitIdle()
	time.Sleep(5 * time.Millisecond)

	// A bare GET must sweep too — submit/finish never fire under a
	// fast-tier-only workload, so read-side eviction is what makes the
	// TTL observable (pre-fix this returned 200 forever).
	if code, _ := get(t, ts.URL+"/v1/jobs/"+id); code != http.StatusGone {
		t.Fatalf("expired job on GET: status %d, want 410", code)
	}

	// Submission-side eviction keeps sweeping as traffic arrives.
	code, body, _ = post(t, ts.URL+"/v1/run", RunRequest{Bench: "eon", Scale: "tiny", Tier: TierExact})
	if code != http.StatusAccepted {
		t.Fatalf("second submission: status %d", code)
	}
	id2 := body["id"].(string)
	s.WaitIdle()
	time.Sleep(5 * time.Millisecond)
	if code, _ := get(t, ts.URL+"/v1/jobs/"+id2); code != http.StatusGone {
		t.Fatalf("second expired job: status %d, want 410", code)
	}
	s.WaitIdle()
}

// TestRetryAfterDerivedFromDrainRate is the regression test for the
// hard-coded Retry-After: with an observed per-job execution time and a
// backlog, the 429 header must reflect backlog/workers · exec-time
// (capped at 60), not a constant.
func TestRetryAfterDerivedFromDrainRate(t *testing.T) {
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
	defer close(release)

	// Simulate a history of slow jobs: 120s smoothed execution time.
	s.mu.Lock()
	s.execEWMA = 120
	s.mu.Unlock()

	for _, bench := range []string{"gcc", "eon"} {
		if code, _, _ := post(t, ts.URL+"/v1/run", RunRequest{Bench: bench, Scale: "tiny", Tier: TierExact}); code != http.StatusAccepted {
			t.Fatalf("fill submission: status %d", code)
		}
	}
	_, _, hdr := post(t, ts.URL+"/v1/run", RunRequest{Bench: "swim", Scale: "tiny", Tier: TierExact})
	// 2 pending / 1 worker · 120s, capped at 60.
	if got := hdr.Get("Retry-After"); got != "60" {
		t.Fatalf("Retry-After = %q with 120s EWMA and 2-deep backlog, want capped 60", got)
	}

	// Fast history: the floor holds.
	s.mu.Lock()
	s.execEWMA = 0.01
	s.mu.Unlock()
	_, _, hdr = post(t, ts.URL+"/v1/run", RunRequest{Bench: "mcf", Scale: "tiny", Tier: TierExact})
	if got := hdr.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q with 10ms EWMA, want the 1s floor", got)
	}
}

// TestFastTierNonFiniteRejected: a calibration that would produce a
// non-finite prediction is refused with 422 — nothing non-finite
// reaches the response or the fast cache. The auto tier degrades to
// exact-only instead of failing.
func TestFastTierNonFiniteRejected(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 4, Workers: 1},
		func(ctx context.Context, spec sim.Spec) (*sim.Result, error) {
			return stubResult(spec), nil
		})
	// Corrupt the table in place (fields are public; Validate would
	// refuse this at load time — the guard under test is the serving
	// boundary).
	s.calibration = &model.Calibration{
		SchemaVersion: model.CalibrationSchemaVersion,
		Source:        model.SourceProfile,
		MissLat:       300,
		SwitchLat:     25,
		Threads: map[string]model.ThreadParams{
			"gcc": {Name: "gcc", IPCNoMiss: math.NaN(), IPM: math.Inf(1)},
			"eon": {Name: "eon", IPCNoMiss: 1.7, IPM: 66000},
		},
		ErrIPCPc:    50,
		ErrFairness: 0.5,
	}

	code, body, _ := post(t, ts.URL+"/v1/run", RunRequest{Pair: "gcc:eon", F: 0.5, Scale: "tiny", Tier: TierFast})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("fast run with NaN calibration: status %d (%v), want 422", code, body)
	}
	if got := counter(s, "serve.fast.unavailable"); got != 1 {
		t.Errorf("serve.fast.unavailable = %d, want 1", got)
	}
	s.mu.Lock()
	cached := len(s.fastCache)
	s.mu.Unlock()
	if cached != 0 {
		t.Errorf("non-finite prediction reached the fast cache (%d entries)", cached)
	}

	// auto degrades: accepted, refined exact, no analytical payload.
	code, body, _ = post(t, ts.URL+"/v1/run", RunRequest{Pair: "gcc:eon", F: 0.5, Scale: "tiny", Tier: TierAuto})
	if code != http.StatusAccepted {
		t.Fatalf("auto run with NaN calibration: status %d, want 202", code)
	}
	if body["fidelity"] != nil {
		t.Fatalf("degraded auto 202 claims fidelity %v", body["fidelity"])
	}
	id := body["id"].(string)
	s.WaitIdle()
	_, jb := get(t, ts.URL+"/v1/jobs/"+id)
	if jb["state"] != StateDone || jb["fidelity"] != FidelityExact {
		t.Fatalf("degraded auto job = state %v fidelity %v, want done/exact", jb["state"], jb["fidelity"])
	}
}
