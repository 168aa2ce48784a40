package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"soemt/internal/core"
	"soemt/internal/sim"
	"soemt/internal/workload"
)

func testSpec(opts Options) sim.Spec {
	m := opts.Machine
	m.Controller.Policy = core.EventOnly{}
	return sim.Spec{
		Machine: m,
		Threads: []sim.ThreadSpec{{Profile: workload.MustByName("gcc"), Slot: 0}},
		Scale:   opts.Scale,
	}
}

// fakeResult is a cheap stand-in for stubbed simulation runs.
func fakeResult(ipc float64) *sim.Result {
	return &sim.Result{
		WallCycles: 1000,
		Threads:    []sim.ThreadResult{{Name: "fake", IPC: ipc}, {Name: "fake2", IPC: ipc}},
		IPCTotal:   2 * ipc,
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := testSpec(testOptions())
	k0, err := Fingerprint(base)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := Fingerprint(testSpec(testOptions())); again != k0 {
		t.Fatal("identical specs must share a fingerprint")
	}

	mutations := map[string]func(*sim.Spec){
		"machine": func(s *sim.Spec) { s.Machine.Controller.MissLat = 299 },
		"memory":  func(s *sim.Spec) { s.Machine.Memory.MemLatency = 301 },
		"scale":   func(s *sim.Spec) { s.Scale.Measure++ },
		"policy":  func(s *sim.Spec) { s.Machine.Controller.Policy = core.Fairness{F: 0.5} },
		"threads": func(s *sim.Spec) { s.Threads[0].StartSeq = 1 },
		"profile": func(s *sim.Spec) { s.Threads[0].Profile = workload.MustByName("eon") },
	}
	seen := map[string]string{k0: "base"}
	for name, mutate := range mutations {
		spec := testSpec(testOptions())
		mutate(&spec)
		k, err := Fingerprint(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("mutation %q collides with %q", name, prev)
		}
		seen[k] = name
	}
}

// Distinct policies with identical parameter shapes must not collide:
// the fingerprint includes the policy name.
func TestFingerprintDistinguishesPolicyKinds(t *testing.T) {
	a := testSpec(testOptions())
	a.Machine.Controller.Policy = core.Fairness{F: 0}
	b := testSpec(testOptions())
	b.Machine.Controller.Policy = core.EventOnly{}
	ka, _ := Fingerprint(a)
	kb, _ := Fingerprint(b)
	if ka == kb {
		t.Fatal("Fairness{0} and EventOnly must fingerprint differently")
	}
}

// Round trip: a result simulated once, persisted, and re-read from a
// fresh Cache over the same directory must be byte-identical (JSON)
// and must not trigger a second simulation.
func TestCacheRoundTripDeterminism(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(testOptions())

	c1, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := c1.RunSpecContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	m := c1.Metrics()
	if m.RunsStarted != 1 || m.Misses != 1 || m.RunsCompleted != 1 {
		t.Fatalf("cold metrics = %+v", m)
	}

	c2, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2.run = func(context.Context, sim.Spec) (*sim.Result, error) {
		t.Fatal("warm cache must not simulate")
		return nil, nil
	}
	res2, err := c2.RunSpecContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	m = c2.Metrics()
	if m.DiskHits != 1 || m.RunsStarted != 0 || m.CacheHits() != 1 {
		t.Fatalf("warm metrics = %+v", m)
	}

	j1, err := json.Marshal(res1)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(res2)
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Fatal("disk round trip changed the result")
	}

	// Third read hits the memory layer.
	if _, err := c2.RunSpecContext(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if m = c2.Metrics(); m.MemHits != 1 {
		t.Fatalf("expected a memory hit, metrics = %+v", m)
	}
}

// A stale schema version on disk must degrade to a miss, never be
// served.
func TestCacheRejectsForeignSchema(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("ab", 32)
	if err := c.Put(key, fakeResult(1)); err != nil {
		t.Fatal(err)
	}
	// Reopen and verify the entry is served, then corrupt the schema.
	c2, _ := NewCache(dir)
	if _, ok := c2.Get(key); !ok {
		t.Fatal("valid entry must be served")
	}
	data := []byte(`{"schema":"some-other-version","key":"` + key + `","result":{}}`)
	if err := os.WriteFile(c.path(key), data, 0o644); err != nil {
		t.Fatal(err)
	}
	c3, _ := NewCache(dir)
	if _, ok := c3.Get(key); ok {
		t.Fatal("foreign schema must be a miss")
	}
}

func TestCacheSingleflightDedup(t *testing.T) {
	c := NewMemCache()
	var calls atomic.Uint64
	started := make(chan struct{})
	release := make(chan struct{})
	c.run = func(context.Context, sim.Spec) (*sim.Result, error) {
		calls.Add(1)
		close(started)
		<-release
		return fakeResult(1), nil
	}
	spec := testSpec(testOptions())

	const waiters = 8
	var wg sync.WaitGroup
	results := make([]*sim.Result, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.RunSpecContext(context.Background(), spec)
			if err != nil {
				t.Error(err)
			}
			results[i] = res
		}(i)
	}
	<-started
	close(release)
	wg.Wait()

	if n := calls.Load(); n != 1 {
		t.Fatalf("simulation ran %d times, want 1", n)
	}
	for i := 1; i < waiters; i++ {
		if results[i] != results[0] {
			t.Fatal("waiters must share the in-flight result")
		}
	}
	m := c.Metrics()
	if m.Misses != 1 || m.DedupHits+m.MemHits != waiters-1 {
		t.Fatalf("singleflight metrics = %+v", m)
	}
}

// A run stopped by its context counts as cancelled, not failed, so
// the metrics line printed on an interrupted exit tells the two apart;
// a genuine error still counts as failed.
func TestRunSpecFreshCountsCancellationApartFromFailure(t *testing.T) {
	boom := errors.New("injected simulation failure")
	c := NewMemCache()
	c.run = func(ctx context.Context, _ sim.Spec) (*sim.Result, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, boom
	}
	spec := testSpec(testOptions())
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.RunSpecFresh(cancelled, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
	}
	if _, err := c.RunSpecFresh(context.Background(), spec); !errors.Is(err, boom) {
		t.Fatalf("failing run: err = %v, want the injected failure", err)
	}

	reg := c.Observability()
	if got := reg.Counter("runner.runs_cancelled").Load(); got != 1 {
		t.Errorf("runner.runs_cancelled = %d, want 1", got)
	}
	if got := reg.Counter("runner.runs_failed").Load(); got != 1 {
		t.Errorf("runner.runs_failed = %d, want 1 (the cancellation must not count)", got)
	}
	m := c.Metrics()
	if m.RunsStarted != 2 || m.RunsCompleted != 0 || m.RunsFailed != 1 {
		t.Errorf("metrics = %+v, want 2 started, 0 completed, 1 failed", m)
	}
	if line := m.String(); !strings.Contains(line, "(failed=1 cancelled=1 ") {
		t.Errorf("metrics line %q lacks failed=1 cancelled=1", line)
	}
}

// stubRunner returns a Runner whose simulations are stubbed: ST
// (single-thread) specs succeed with a fake result; pair specs go
// through onPair.
func stubRunner(t *testing.T, onPair func(sim.Spec) (*sim.Result, error)) *Runner {
	t.Helper()
	r := NewRunner(testOptions())
	r.cache.run = func(_ context.Context, spec sim.Spec) (*sim.Result, error) {
		if len(spec.Threads) == 1 {
			return fakeResult(1), nil
		}
		return onPair(spec)
	}
	return r
}

// An injected mid-matrix error must stop dispatch and return that
// error without deadlock (the old unbuffered dispatch loop kept
// simulating every remaining pair).
func TestRunAllStopsOnFirstError(t *testing.T) {
	boom := errors.New("injected simulation failure")
	var pairRuns atomic.Uint64
	r := stubRunner(t, func(sim.Spec) (*sim.Result, error) {
		pairRuns.Add(1)
		return nil, boom
	})
	r.Workers = 1
	_, err := r.RunAllContext(context.Background())
	if !errors.Is(err, boom) {
		t.Fatalf("RunAll error = %v, want injected failure", err)
	}
	if n := pairRuns.Load(); n != 1 {
		t.Fatalf("dispatched %d pair simulations after the first error, want 1", n)
	}
}

// A worker panic must be recovered, converted to an error, and must
// not hang RunAll or concurrent waiters on the same cache key.
func TestRunAllPropagatesWorkerPanic(t *testing.T) {
	r := stubRunner(t, func(sim.Spec) (*sim.Result, error) {
		panic("boom")
	})
	r.Workers = 2
	_, err := r.RunAllContext(context.Background())
	if err == nil {
		t.Fatal("RunAll must surface the worker panic")
	}
	if !strings.Contains(err.Error(), "panic") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panic not propagated in error: %v", err)
	}
}

// PairRuns assembled by hand may lack F levels;
// the derived metrics must return 0 instead of panicking.
func TestPairRunMissingFLevelGuards(t *testing.T) {
	pr := &PairRun{
		Pair: Pair{"gcc", "eon"},
		ST:   [2]float64{1, 1},
		ByF:  map[float64]*sim.Result{0.5: fakeResult(1)},
	}
	if got := pr.NormalizedThroughput(0.25); got != 0 {
		t.Errorf("NormalizedThroughput(missing) = %v, want 0", got)
	}
	// F=0.5 present, but the F=0 baseline is missing.
	if got := pr.NormalizedThroughput(0.5); got != 0 {
		t.Errorf("NormalizedThroughput without baseline = %v, want 0", got)
	}
	if got := pr.SOESpeedup(0.25); got != 0 {
		t.Errorf("SOESpeedup(missing) = %v, want 0", got)
	}
	if sp := pr.Speedups(0.25); sp[0] != 0 || sp[1] != 0 {
		t.Errorf("Speedups(missing) = %v, want zeros", sp)
	}
	if got := pr.Fairness(0.25); got != 0 {
		t.Errorf("Fairness(missing) = %v, want 0", got)
	}
	if got := pr.SOESpeedup(0.5); got != 2 {
		t.Errorf("SOESpeedup(present) = %v, want 2", got)
	}
}

// RunSpec through a persistent runner cache and a second runner over
// the same directory must agree bit-for-bit; the runner surfaces hit
// counts through Metrics.
func TestRunnerPersistentCacheMetrics(t *testing.T) {
	dir := t.TempDir()
	var sims atomic.Uint64
	newStub := func() *Runner {
		c, err := NewCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunnerWith(testOptions(), c)
		r.cache.run = func(_ context.Context, spec sim.Spec) (*sim.Result, error) {
			sims.Add(1)
			return fakeResult(float64(len(spec.Threads))), nil
		}
		return r
	}

	r1 := newStub()
	pr1, err := r1.RunPairContext(context.Background(), Pair{"gcc", "eon"})
	if err != nil {
		t.Fatal(err)
	}
	cold := sims.Load()
	if cold == 0 {
		t.Fatal("cold runner must simulate")
	}

	r2 := newStub()
	pr2, err := r2.RunPairContext(context.Background(), Pair{"gcc", "eon"})
	if err != nil {
		t.Fatal(err)
	}
	if sims.Load() != cold {
		t.Fatalf("warm runner simulated %d extra runs", sims.Load()-cold)
	}
	m := r2.Metrics()
	if m.DiskHits == 0 || m.RunsStarted != 0 {
		t.Fatalf("warm runner metrics = %+v", m)
	}
	j1, _ := json.Marshal(pr1.ByF)
	j2, _ := json.Marshal(pr2.ByF)
	if string(j1) != string(j2) {
		t.Fatal("warm matrix differs from cold matrix")
	}
}
