// Result cache for the experiment engine.
//
// Every figure and table re-simulates the same deterministic matrix;
// the cache makes repeated invocations near-free. Results are
// content-addressed by Fingerprint (machine + policy + threads + scale
// + schema version), so a cache entry can never be served for a run it
// does not exactly describe, and bumping SchemaVersion invalidates the
// whole store without touching the files.
//
// Three layers:
//
//  1. in-memory map — hits share the same *sim.Result pointer (results
//     are treated as immutable once published);
//  2. on-disk JSON store under Dir() — survives process restarts; reads
//     verify the schema version, key, and a content checksum before
//     trusting a file;
//  3. in-flight dedup — concurrent requests for the same key run one
//     simulation and share its outcome (singleflight), replacing the
//     duplicate-work race the Runner previously documented.
//
// The disk layer is strictly best-effort: a directory that cannot be
// created degrades the cache to memory-only at construction, and a
// store that turns read-only mid-run (every write failing) disables
// further writes after a few consecutive failures. Neither ever fails
// or corrupts a run — the worst case is re-simulation.
package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"soemt/internal/faultinject"
	"soemt/internal/obs"
	"soemt/internal/sim"
)

// maxWriteFails is how many consecutive disk-write failures the cache
// tolerates before concluding the store is unusable (disk full, turned
// read-only) and going memory-only for writes.
const maxWriteFails = 3

// interruptMarkerFile marks a cache directory whose producing run was
// interrupted: the entries are individually valid but the matrix they
// belong to is incomplete. See MarkInterrupted.
const interruptMarkerFile = "INTERRUPTED"

// Cache is a content-addressed store of simulation results. The zero
// value is not usable; construct with NewCache or NewMemCache. All
// methods are safe for concurrent use.
type Cache struct {
	dir string // "" = memory-only
	run func(context.Context, sim.Spec) (*sim.Result, error)

	// peerFill, if non-nil, is the remote peer cache tier consulted
	// after a disk miss and before simulating (see SetPeerFill). It is
	// strictly best-effort: any error degrades to local execution.
	peerFill func(context.Context, string) (*sim.Result, error)

	// Logf, if non-nil, receives warnings about best-effort disk
	// operations (a failed write never fails the run that produced the
	// result). May be called from multiple goroutines.
	Logf func(format string, args ...interface{})

	// Faults, if non-nil, deterministically injects faults at the
	// cache's named sites (currently "cache.write"). Nil in production;
	// see internal/faultinject.
	Faults *faultinject.Injector

	mu        sync.Mutex
	mem       map[string]*sim.Result
	inflight  map[string]*inflightRun
	degraded  error // mkdir failure that demoted the cache to memory-only
	warned    bool  // degradation warning emitted
	failRun   int   // consecutive disk-write failures
	writesOff bool  // disk writes disabled after maxWriteFails in a row

	m metrics
}

// inflightRun is a singleflight cell: the first requester runs the
// simulation, later requesters block on done and share the outcome.
type inflightRun struct {
	done chan struct{}
	res  *sim.Result
	err  error
}

// NewCache returns a cache persisting to dir (created if missing).
// An empty dir yields a memory-only cache. A directory that cannot be
// created does not fail construction: the cache degrades to
// memory-only, records the cause (see Degraded), and warns through
// Logf on first use — an unwritable scratch disk costs re-simulation,
// never the run.
func NewCache(dir string) (*Cache, error) {
	c := &Cache{
		dir:      dir,
		run:      sim.RunContext,
		mem:      make(map[string]*sim.Result),
		inflight: make(map[string]*inflightRun),
		m:        newMetrics(obs.NewRegistry()),
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			c.dir = ""
			c.degraded = fmt.Errorf("experiments: cache dir %s: %w", dir, err)
		}
	}
	return c, nil
}

// NewMemCache returns an in-memory (non-persistent) cache.
func NewMemCache() *Cache {
	c, _ := NewCache("")
	return c
}

// SetRunFunc replaces the simulation backend invoked on cache misses
// (sim.RunContext by default; nil restores it). It lets services and
// tests interpose on execution — stubbing or instrumenting the
// simulation while keeping the real fingerprint, layering, and
// singleflight behavior. Call it before the cache serves requests;
// swapping backends mid-flight would let results from the old backend
// satisfy keys produced for the new one.
func (c *Cache) SetRunFunc(fn func(context.Context, sim.Spec) (*sim.Result, error)) {
	if fn == nil {
		fn = sim.RunContext
	}
	c.run = fn
}

// Dir returns the on-disk store directory ("" for memory-only caches,
// including caches degraded to memory-only at construction).
func (c *Cache) Dir() string { return c.dir }

// Metrics returns a snapshot of the cache's instrumentation.
func (c *Cache) Metrics() RunnerMetrics { return c.m.snapshot() }

// Observability returns the cache's metrics registry. It carries the
// counters behind Metrics plus everything simulations publish when the
// registry is attached to their specs (see Runner). Safe for
// concurrent use.
func (c *Cache) Observability() *obs.Registry { return c.m.reg }

func (c *Cache) logf(format string, args ...interface{}) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// warnDegraded emits the construction-time degradation warning once.
// It runs lazily because Logf is typically installed after NewCache.
func (c *Cache) warnDegraded() {
	c.mu.Lock()
	d, warned := c.degraded, c.warned
	c.warned = true
	c.mu.Unlock()
	if d != nil && !warned {
		c.logf("WARN cache: persistent store unavailable, running memory-only: %v", d)
	}
}

// RunSpecContext executes spec through the cache: fingerprint, layered
// lookup, singleflight simulation on miss, store. The simulation runs
// under ctx (cancellation, plus the spec's own watchdog). Returned
// results are shared and must not be mutated.
//
// When concurrent callers collapse onto one in-flight simulation, the
// first caller's ctx governs it. A cancellation there does NOT poison
// the waiters: a follower whose own ctx is still live elects itself
// the new leader and reruns under its own ctx (see DoContext), so one
// cancelled client can never fail an identical request from a live
// one.
func (c *Cache) RunSpecContext(ctx context.Context, spec sim.Spec) (*sim.Result, error) {
	key, err := Fingerprint(spec)
	if err != nil {
		return nil, err
	}
	res, _, err := c.DoContext(ctx, key, func() (*sim.Result, error) {
		return c.RunSpecFresh(ctx, spec)
	})
	return res, err
}

// RunSpecFresh executes spec directly through the configured run
// function, bypassing every cache layer — no lookup, no singleflight,
// no store. It exists for traced runs: a cache hit skips the
// simulation and records nothing (§10 contract), so a live tracer
// requires an actual run regardless of cache state. soesim's
// -trace-events path and soeserve's "trace": true jobs use it.
// Run-lifecycle metrics (runs_started/completed/failed/cancelled, sim
// cycles and wall time) are still counted; a run stopped by its
// context counts as cancelled, not failed.
func (c *Cache) RunSpecFresh(ctx context.Context, spec sim.Spec) (*sim.Result, error) {
	// Fresh simulations publish their engine metrics (pipe.*, core.*,
	// sim.*) into the cache's registry unless the caller attached its
	// own observer. Fingerprints exclude Obs, so this never forks cache
	// keys.
	if spec.Obs == nil {
		spec.Obs = &obs.Observer{Metrics: c.m.reg}
	}
	c.m.runsStarted.Add(1)
	start := time.Now()
	r, err := c.run(ctx, spec)
	if err != nil {
		if cancellation(err) {
			c.m.runsCancelled.Add(1)
		} else {
			c.m.runsFailed.Add(1)
		}
		return nil, err
	}
	c.m.runsCompleted.Add(1)
	c.m.simWallNanos.Add(uint64(time.Since(start)))
	c.m.simCycles.Add(r.WallCycles)
	if r.Truncated {
		c.m.truncated.Add(1)
	}
	return r, nil
}

// cancellation reports whether err is (or wraps) a context
// cancellation or deadline expiry — the leader's ctx dying, not a
// property of the simulation itself. Watchdog aborts (StallError,
// DeadlineError) are typed errors that do not wrap the context
// sentinels, so a run that would genuinely fail again is never
// retried.
func cancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// DoContext returns the cached result for key, or runs fn exactly once
// across all concurrent callers to produce it. The boolean reports
// whether the result was served without invoking fn in this call
// (memory, disk, or a concurrent caller's run). Errors are not cached:
// a later call retries. ctx is honored while waiting on another
// caller's in-flight run.
//
// Singleflight followers join the leader's cell, but the leader runs
// under its own ctx: if that ctx is cancelled mid-run, the outcome is
// a cancellation that says nothing about the simulation. A follower
// whose ctx is still live must not inherit it — it loops, finds the
// cell gone (finish always deletes it), and elects itself the new
// leader, rerunning fn under its own ctx. Followers whose own ctx died
// while waiting return their ctx.Err(). Genuine simulation errors
// propagate to all waiters unchanged (and are not cached, so a later
// call retries).
func (c *Cache) DoContext(ctx context.Context, key string, fn func() (*sim.Result, error)) (*sim.Result, bool, error) {
	c.warnDegraded()
	var f *inflightRun
	for {
		c.mu.Lock()
		if res, ok := c.mem[key]; ok {
			c.mu.Unlock()
			c.m.memHits.Add(1)
			return res, true, nil
		}
		w, ok := c.inflight[key]
		if !ok {
			// No live leader: become it (still holding the lock).
			break
		}
		c.mu.Unlock()
		select {
		case <-w.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if w.err == nil {
			c.m.dedupHits.Add(1)
			return w.res, true, nil
		}
		if cancellation(w.err) && ctx.Err() == nil {
			// The leader's ctx died, ours is live: re-elect. The failed
			// cell was already removed by finish, so the next iteration
			// either joins a newer leader or takes over.
			c.m.dedupRetries.Add(1)
			continue
		}
		return nil, false, w.err
	}
	f = &inflightRun{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()

	finished := false
	finish := func(res *sim.Result, err error) {
		finished = true
		f.res, f.err = res, err
		c.mu.Lock()
		delete(c.inflight, key)
		if err == nil && res != nil {
			c.mem[key] = res
		}
		c.mu.Unlock()
		close(f.done)
	}
	// A panic inside fn must not leave concurrent waiters blocked on
	// f.done forever: resolve the cell with an error, then re-panic so
	// the caller's own recovery (e.g. RunAllContext's worker) still fires.
	defer func() {
		if rec := recover(); rec != nil {
			if !finished {
				finish(nil, fmt.Errorf("experiments: cache: run for %.12s… panicked: %v", key, rec))
			}
			panic(rec)
		}
	}()

	if res := c.readDisk(key); res != nil {
		c.m.diskHits.Add(1)
		finish(res, nil)
		return res, true, nil
	}

	// Local layers missed: try the remote peer tier before paying for a
	// simulation. A verified peer result is persisted locally so the
	// next restart hits disk instead of the network; any peer failure
	// falls through to fn — degraded, never wrong.
	if res := c.fetchPeer(ctx, key); res != nil {
		if werr := c.writeDisk(key, res); werr != nil {
			c.logf("WARN cache: persist peer fill %.12s…: %v", key, werr)
		}
		finish(res, nil)
		return res, true, nil
	}

	c.m.misses.Add(1)
	res, err := fn()
	if err == nil && res != nil {
		if werr := c.writeDisk(key, res); werr != nil {
			c.logf("WARN cache: persist %.12s…: %v", key, werr)
		}
	}
	finish(res, err)
	return res, false, err
}

// Get returns the result stored under key, checking the memory then
// the disk layer. It never triggers a simulation.
func (c *Cache) Get(key string) (*sim.Result, bool) {
	c.mu.Lock()
	res, ok := c.mem[key]
	c.mu.Unlock()
	if ok {
		return res, true
	}
	if res := c.readDisk(key); res != nil {
		c.mu.Lock()
		c.mem[key] = res
		c.mu.Unlock()
		return res, true
	}
	return nil, false
}

// Put stores res under key in both layers. The disk write is atomic
// (temp file + rename); its error is returned but the memory layer is
// always updated.
func (c *Cache) Put(key string, res *sim.Result) error {
	c.mu.Lock()
	c.mem[key] = res
	c.mu.Unlock()
	return c.writeDisk(key, res)
}

// MarkInterrupted writes the interrupt marker into the cache
// directory, recording that the run producing this store was cut short
// (note explains why, e.g. "SIGINT"). Individual entries stay valid —
// a rerun over the same directory warm-resumes from them — but
// consumers of the whole matrix can see it is incomplete. No-op for
// memory-only caches.
func (c *Cache) MarkInterrupted(note string) error {
	if c.dir == "" {
		return nil
	}
	return os.WriteFile(filepath.Join(c.dir, interruptMarkerFile), []byte(note+"\n"), 0o644)
}

// ClearInterrupted removes the interrupt marker (a completed run over
// the directory supersedes any earlier interruption).
func (c *Cache) ClearInterrupted() error {
	if c.dir == "" {
		return nil
	}
	err := os.Remove(filepath.Join(c.dir, interruptMarkerFile))
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// Interrupted reports whether the cache directory carries an interrupt
// marker from an earlier run, and returns the recorded note.
func (c *Cache) Interrupted() (string, bool) {
	if c.dir == "" {
		return "", false
	}
	data, err := os.ReadFile(filepath.Join(c.dir, interruptMarkerFile))
	if err != nil {
		return "", false
	}
	return string(data), true
}

// diskEntry is the on-disk envelope. Schema, Key, and Sum are verified
// on read so a stale, foreign, or corrupted file degrades to a cache
// miss, never to a wrong result.
type diskEntry struct {
	Schema string      `json:"schema"`
	Key    string      `json:"key"`
	Sum    string      `json:"sum,omitempty"` // sha256 of the marshaled Result
	Result *sim.Result `json:"result"`
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// resultSum is the integrity checksum stored in diskEntry.Sum. It is
// computed over json.Marshal(res); Go's float64 encoding is
// shortest-round-trip, so marshal∘unmarshal∘marshal is a fixed point
// and the read side can recompute the sum from the decoded result.
func resultSum(res *sim.Result) (string, error) {
	data, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// readDisk returns the stored result for key, or nil when the disk
// layer is disabled, the file is absent, or the entry fails schema,
// key, or checksum verification (corrupt and stale entries are misses,
// not errors — and never wrong results: flipped bytes that still parse
// as JSON are caught by the checksum). Entries written before the
// checksum existed (empty Sum) are accepted for compatibility.
func (c *Cache) readDisk(key string) *sim.Result {
	if c.dir == "" {
		return nil
	}
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil
	}
	var e diskEntry
	if err := json.Unmarshal(data, &e); err != nil {
		c.logf("WARN cache: corrupt entry %.12s…: %v", key, err)
		return nil
	}
	if e.Schema != SchemaVersion || e.Key != key || e.Result == nil {
		return nil
	}
	if e.Sum != "" {
		sum, err := resultSum(e.Result)
		if err != nil || sum != e.Sum {
			c.logf("WARN cache: checksum mismatch on entry %.12s…, treating as miss", key)
			return nil
		}
	}
	c.mu.Lock()
	if prev, ok := c.mem[key]; ok {
		// Keep the pointer already published to other callers.
		c.mu.Unlock()
		return prev
	}
	c.mem[key] = e.Result
	c.mu.Unlock()
	return e.Result
}

// writesDisabled reports whether the write side of the disk layer has
// been turned off by consecutive failures.
func (c *Cache) writesDisabled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writesOff
}

// noteWrite tracks consecutive write failures; after maxWriteFails in
// a row the store is presumed unusable (read-only remount, disk full)
// and further writes are skipped. Reads stay enabled — existing
// entries remain trustworthy.
func (c *Cache) noteWrite(err error) {
	c.mu.Lock()
	if err == nil {
		c.failRun = 0
		c.mu.Unlock()
		return
	}
	c.failRun++
	turnOff := !c.writesOff && c.failRun >= maxWriteFails
	if turnOff {
		c.writesOff = true
	}
	c.mu.Unlock()
	if turnOff {
		c.logf("WARN cache: %d consecutive write failures; disabling disk writes (results stay in memory, reruns will re-simulate)", maxWriteFails)
	}
}

func (c *Cache) writeDisk(key string, res *sim.Result) error {
	if c.dir == "" || c.writesDisabled() {
		return nil
	}
	if err := c.Faults.Fail("cache.write"); err != nil {
		c.noteWrite(err)
		return err
	}
	err := c.writeDiskFile(key, res)
	c.noteWrite(err)
	return err
}

func (c *Cache) writeDiskFile(key string, res *sim.Result) error {
	sum, err := resultSum(res)
	if err != nil {
		return err
	}
	data, err := json.Marshal(diskEntry{Schema: SchemaVersion, Key: key, Sum: sum, Result: res})
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.dir, key+".*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), c.path(key))
}
