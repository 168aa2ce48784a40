package experiments

// Fault-injection regression suite: every fault the engine claims to
// tolerate — corrupt or truncated disk entries, an unusable or
// read-only cache store, worker panics and delays — must degrade to a
// cache miss, a warning, or a clean error. Never to a wrong or
// silently short result.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"soemt/internal/faultinject"
	"soemt/internal/sim"
)

// stubCache returns a persistent cache over dir whose simulations are
// stubbed with fakeResult, plus the fingerprint key of spec.
func stubCache(t *testing.T, dir string, spec sim.Spec) (*Cache, string) {
	t.Helper()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.run = func(context.Context, sim.Spec) (*sim.Result, error) {
		return fakeResult(1.25), nil
	}
	key, err := Fingerprint(spec)
	if err != nil {
		t.Fatal(err)
	}
	return c, key
}

// Corruption anywhere in a disk entry must degrade to a miss (schema,
// key, or checksum verification fails, or the JSON no longer parses) —
// or, if the seeded garbage happens to rewrite bytes to their original
// values, to the original result. A corrupted entry must never be
// served with different contents.
func TestCorruptedEntryDegradesToMissNeverWrongResult(t *testing.T) {
	spec := testSpec(testOptions())
	srcDir := t.TempDir()
	c, key := stubCache(t, srcDir, spec)
	want, err := c.RunSpecContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	entry, err := os.ReadFile(c.path(key))
	if err != nil {
		t.Fatal(err)
	}

	misses, served := 0, 0
	for seed := uint64(0); seed < 32; seed++ {
		dir := t.TempDir()
		path := filepath.Join(dir, key+".json")
		if err := os.WriteFile(path, entry, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := faultinject.CorruptFile(path, seed); err != nil {
			t.Fatal(err)
		}
		c2, _ := NewCache(dir)
		res, ok := c2.Get(key)
		if !ok {
			misses++
			continue
		}
		served++
		got, _ := json.Marshal(res)
		if string(got) != string(wantJSON) {
			t.Fatalf("seed %d: corrupted entry served with WRONG contents", seed)
		}
	}
	if misses == 0 {
		t.Error("no corruption seed produced a miss; corruption detection untested")
	}
	t.Logf("corruption: %d misses, %d byte-identical serves over 32 seeds", misses, served)
}

// A truncated entry (partial write that lost its tail) must be a miss,
// and a subsequent RunSpec must re-simulate and return a full result.
func TestTruncatedEntryIsMissAndResimulates(t *testing.T) {
	spec := testSpec(testOptions())
	dir := t.TempDir()
	c, key := stubCache(t, dir, spec)
	want, err := c.RunSpecContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.TruncateFile(c.path(key), 0.6); err != nil {
		t.Fatal(err)
	}

	c2, key2 := stubCache(t, dir, spec)
	if key2 != key {
		t.Fatal("fingerprint changed between caches")
	}
	if _, ok := c2.Get(key); ok {
		t.Fatal("truncated entry must be a miss")
	}
	res, err := c2.RunSpecContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(want)
	b, _ := json.Marshal(res)
	if string(a) != string(b) {
		t.Fatal("re-simulated result differs from original")
	}
	if m := c2.Metrics(); m.RunsStarted != 1 {
		t.Fatalf("expected exactly one re-simulation, metrics = %+v", m)
	}
}

// A cache directory that cannot be created (here: the path runs
// through a regular file, which fails even for root) must degrade to a
// memory-only cache with a warning — construction and runs both
// succeed.
func TestUncreatableCacheDirDegradesToMemoryOnly(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := NewCache(filepath.Join(blocker, "cache"))
	if err != nil {
		t.Fatalf("NewCache must not fail on an uncreatable dir: %v", err)
	}
	if c.degraded == nil {
		t.Fatal("cache must record its degradation")
	}
	if c.Dir() != "" {
		t.Fatalf("degraded cache still claims dir %q", c.Dir())
	}
	var warnings atomic.Int32
	c.Logf = func(format string, args ...interface{}) {
		if strings.Contains(fmt.Sprintf(format, args...), "memory-only") {
			warnings.Add(1)
		}
	}
	c.run = func(context.Context, sim.Spec) (*sim.Result, error) {
		return fakeResult(1), nil
	}
	spec := testSpec(testOptions())
	if _, err := c.RunSpecContext(context.Background(), spec); err != nil {
		t.Fatalf("degraded cache must still run: %v", err)
	}
	if _, err := c.RunSpecContext(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if n := warnings.Load(); n != 1 {
		t.Errorf("degradation warned %d times, want exactly 1", n)
	}
	if m := c.Metrics(); m.MemHits != 1 {
		t.Errorf("memory layer inactive after degradation: %+v", m)
	}
}

// When every disk write fails (injected at the cache.write site,
// simulating a store that turned read-only mid-run), the cache must
// keep serving correct results from memory and stop attempting writes
// after maxWriteFails consecutive failures.
func TestWriteFailuresDisableDiskWrites(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.run = func(_ context.Context, spec sim.Spec) (*sim.Result, error) {
		return fakeResult(float64(spec.Scale.Measure)), nil
	}
	c.Faults = faultinject.New(1).Arm("cache.write", faultinject.Plan{Every: 1})
	var disabled atomic.Int32
	c.Logf = func(format string, args ...interface{}) {
		if strings.Contains(fmt.Sprintf(format, args...), "disabling disk writes") {
			disabled.Add(1)
		}
	}

	for i := 0; i < maxWriteFails+2; i++ {
		spec := testSpec(testOptions())
		spec.Scale.Measure += uint64(i) // distinct fingerprints
		res, err := c.RunSpecContext(context.Background(), spec)
		if err != nil {
			t.Fatalf("run %d: injected write failure leaked into the run: %v", i, err)
		}
		if res.Threads[0].IPC != float64(spec.Scale.Measure) {
			t.Fatalf("run %d: wrong result under write faults", i)
		}
	}
	if disabled.Load() != 1 {
		t.Errorf("disable warning emitted %d times, want 1", disabled.Load())
	}
	// Once disabled, writeDisk short-circuits before the fault site.
	if n := c.Faults.Calls("cache.write"); n != maxWriteFails {
		t.Errorf("fault site consulted %d times, want %d (writes must stop)", n, maxWriteFails)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("failed writes left %d entries on disk", len(entries))
	}
}

// An injected worker panic in RunAll must surface as a clean error
// naming the panic, never kill the process or hang the pool.
func TestInjectedWorkerPanicSurfacesAsError(t *testing.T) {
	r := stubRunner(t, func(sim.Spec) (*sim.Result, error) {
		return fakeResult(1), nil
	})
	r.Workers = 2
	r.Faults = faultinject.New(3).Arm("worker.panic", faultinject.Plan{Every: 4})
	out, err := r.RunAllContext(context.Background())
	if err == nil {
		t.Fatal("injected worker panic must surface as an error")
	}
	if !strings.Contains(err.Error(), "worker panic") || !strings.Contains(err.Error(), "injected panic at worker.panic") {
		t.Fatalf("panic not identified in error: %v", err)
	}
	if out == nil {
		t.Fatal("RunAll must return the partial results alongside the error")
	}
}

// Injected worker delays must not change any result — only slow the
// matrix down.
func TestInjectedWorkerDelaysAreHarmless(t *testing.T) {
	run := func(faults *faultinject.Injector) []*PairRun {
		r := stubRunner(t, func(spec sim.Spec) (*sim.Result, error) {
			return fakeResult(float64(len(spec.Threads))), nil
		})
		r.Workers = 4
		r.Faults = faults
		out, err := r.RunAllContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	plain := run(nil)
	delayed := run(faultinject.New(9).Arm("worker.delay", faultinject.Plan{Prob: 0.5, Delay: 2 * time.Millisecond}))
	a, _ := json.Marshal(plain)
	b, _ := json.Marshal(delayed)
	if string(a) != string(b) {
		t.Fatal("injected delays changed the matrix results")
	}
}

// A mid-matrix failure must still hand back the pairs that completed
// before the stop, so an interrupted invocation can flush partial
// results.
func TestRunAllReturnsPartialResultsOnFailure(t *testing.T) {
	ps := Pairs()
	failAt := ps[3].Name()
	boom := errors.New("injected mid-matrix failure")
	r := stubRunner(t, func(spec sim.Spec) (*sim.Result, error) {
		if len(spec.Threads) == 2 &&
			spec.Threads[0].Profile.Name+":"+spec.Threads[1].Profile.Name == failAt {
			return nil, boom
		}
		return fakeResult(1), nil
	})
	r.Workers = 1
	out, err := r.RunAllContext(context.Background())
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected failure", err)
	}
	if len(out) != len(ps) {
		t.Fatalf("partial slice has %d slots, want %d", len(out), len(ps))
	}
	done := 0
	for i, pr := range out {
		if pr != nil {
			done++
			if pr.Pair != ps[i] {
				t.Fatalf("slot %d holds pair %v, want %v", i, pr.Pair, ps[i])
			}
		}
	}
	if done != 3 {
		t.Errorf("completed %d pairs before the failure, want 3 (Workers=1, failure at index 3)", done)
	}
}

func TestInterruptMarkerRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Interrupted(); ok {
		t.Fatal("fresh cache claims interruption")
	}
	if err := c.MarkInterrupted("SIGINT during RunAll"); err != nil {
		t.Fatal(err)
	}
	c2, _ := NewCache(dir)
	note, ok := c2.Interrupted()
	if !ok || !strings.Contains(note, "SIGINT") {
		t.Fatalf("marker not visible to a fresh cache: (%q, %v)", note, ok)
	}
	if err := c2.ClearInterrupted(); err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Interrupted(); ok {
		t.Fatal("marker survived ClearInterrupted")
	}
	if err := c2.ClearInterrupted(); err != nil {
		t.Fatalf("clearing an absent marker must be a no-op: %v", err)
	}

	// Memory-only caches have nowhere to persist a marker: all three
	// are inert no-ops.
	m := NewMemCache()
	if err := m.MarkInterrupted("x"); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Interrupted(); ok {
		t.Fatal("memory-only cache claims interruption")
	}
}
