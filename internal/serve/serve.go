// Package serve implements soeserve, the simulation service: the
// experiment engine behind a bounded job queue with backpressure, a
// request coalescer layered on the content-addressed result cache,
// and a simulation worker pool.
//
// Request flow (DESIGN.md §11):
//
//	POST /v1/run ───┐
//	POST /v1/sweep ─┴▶ coalescer ▶ bounded admission ▶ worker pool ▶ cache/singleflight ▶ sim
//
// Admission is bounded by QueueDepth accepted-but-unfinished jobs;
// beyond that, submissions get 429 + Retry-After instead of unbounded
// memory. Identical concurrent requests coalesce onto one job at
// admission, and whatever slips past the coalescer (e.g. a request
// arriving after its twin started running) is still deduplicated by
// the cache's singleflight layer — so N identical submissions cost one
// simulation regardless of timing.
//
// Drain (SIGTERM) stops admission, finishes every accepted job, and —
// past the drain deadline — cancels in-flight work; interrupted sweeps
// checkpoint their completed rows and mark the result cache through
// the internal/cli interrupt path, so a restart resumes from every
// simulation that finished.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"soemt/internal/cli"
	"soemt/internal/cluster"
	"soemt/internal/experiments"
	"soemt/internal/model"
	"soemt/internal/obs"
	"soemt/internal/sim"
)

// Config parameterizes a Server. The zero value gets sensible
// defaults from withDefaults.
type Config struct {
	// QueueDepth bounds accepted-but-unfinished jobs (queued plus
	// running); submissions beyond it are rejected with 429. Default 64.
	QueueDepth int
	// Workers bounds concurrent simulations. Default GOMAXPROCS.
	Workers int
	// CacheDir roots the persistent result cache ("" = memory-only).
	CacheDir string
	// TraceCap is the tracer ring capacity for trace-requesting jobs.
	// Default 65536 events.
	TraceCap int
	// DefaultTier applies when a request leaves tier unset: "fast",
	// "exact" or "auto". Default "auto".
	DefaultTier string
	// Calibration backs the fast tier. Nil falls back to the
	// profile-derived table (wide error bars, no simulation needed).
	Calibration *model.Calibration
	// JobRetention is how long terminal jobs stay queryable on
	// /v1/jobs/{id}; older ones are evicted (410 Gone). Negative
	// disables the TTL (the MaxTerminalJobs bound still applies).
	// Default 1h.
	JobRetention time.Duration
	// MaxTerminalJobs bounds retained terminal jobs regardless of age,
	// so the job map cannot grow linearly with traffic. Default 1024.
	MaxTerminalJobs int
	// NodeName, when set, prefixes job ids ("n1-job-000001") so ids
	// minted by different cluster nodes never collide and a gateway can
	// fan a job lookup across the fleet unambiguously. Default "" (bare
	// "job-%06d", the pre-cluster format).
	NodeName string
	// MaxBodyBytes bounds a request body; larger submissions get a
	// deterministic 413. Default 1 MiB.
	MaxBodyBytes int64
	// Logf, if non-nil, receives server log lines.
	Logf func(format string, args ...interface{})
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.TraceCap <= 0 {
		c.TraceCap = 1 << 16
	}
	if c.DefaultTier == "" {
		c.DefaultTier = TierAuto
	}
	if c.JobRetention == 0 {
		c.JobRetention = time.Hour
	}
	if c.MaxTerminalJobs <= 0 {
		c.MaxTerminalJobs = 1024
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	return c
}

var (
	errQueueFull = errors.New("serve: queue full")
	errDraining  = errors.New("serve: draining")
)

// Server is the soeserve engine. Construct with NewServer; all methods
// are safe for concurrent use.
type Server struct {
	cfg   Config
	cache *experiments.Cache
	reg   *obs.Registry

	sem chan struct{} // worker-pool slots

	calibration *model.Calibration // immutable after NewServer

	mu        sync.Mutex
	peers     *cluster.Cluster // joined via SetPeers; nil standalone
	jobs      map[string]*job
	active    map[string]*job // coalescing key -> non-terminal job
	runners   map[string]*experiments.Runner
	fastCache map[string]any // fingerprint+"|fast" -> analytical answer
	terminal  []terminalRef  // eviction order: oldest finished first
	execEWMA  float64        // smoothed exact-job execution seconds
	pending   int            // accepted, not yet terminal
	draining  bool
	seq       int

	jobWG sync.WaitGroup // accepted jobs

	baseCtx    context.Context // governs job execution (not tied to any request)
	cancelJobs context.CancelFunc

	coalescedC *obs.Counter
	acceptedC  *obs.Counter
	rejectedC  *obs.Counter
	completedC *obs.Counter
	failedC    *obs.Counter
	qWaitTotal *obs.Counter
	qDepth     *obs.Gauge // accepted jobs waiting for a worker slot
	qCap       *obs.Gauge
	qWaitLast  *obs.Gauge
	pendingG   *obs.Gauge

	fastC          *obs.Counter
	fastCacheHitsC *obs.Counter
	fastUnavailC   *obs.Counter
	fastLatencyC   *obs.Counter
	evictedC       *obs.Counter
}

// terminalRef remembers when a job went terminal, for TTL/LRU eviction.
type terminalRef struct {
	id string
	at time.Time
}

// NewServer builds the server and its shared result cache. Stop it
// with Drain.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if _, err := tierFor("", cfg.DefaultTier); err != nil {
		return nil, err
	}
	cal := cfg.Calibration
	if cal == nil {
		var err error
		if cal, err = defaultCalibration(); err != nil {
			return nil, err
		}
	} else if err := cal.Validate(); err != nil {
		return nil, err
	}
	cache, err := experiments.NewCache(cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	reg := cache.Observability()
	baseCtx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:         cfg,
		cache:       cache,
		reg:         reg,
		calibration: cal,
		sem:         make(chan struct{}, cfg.Workers),
		jobs:        make(map[string]*job),
		active:      make(map[string]*job),
		runners:     make(map[string]*experiments.Runner),
		fastCache:   make(map[string]any),
		baseCtx:     baseCtx,
		cancelJobs:  cancel,

		coalescedC: reg.Counter("serve.coalesced"),
		acceptedC:  reg.Counter("serve.jobs_accepted"),
		rejectedC:  reg.Counter("serve.jobs_rejected"),
		completedC: reg.Counter("serve.jobs_completed"),
		failedC:    reg.Counter("serve.jobs_failed"),
		qWaitTotal: reg.Counter("serve.queue.wait_us_total"),
		qDepth:     reg.Gauge("serve.queue.depth"),
		qCap:       reg.Gauge("serve.queue.capacity"),
		qWaitLast:  reg.Gauge("serve.queue.wait_last_us"),
		pendingG:   reg.Gauge("serve.jobs.pending"),

		fastC:          reg.Counter("serve.fast.answers"),
		fastCacheHitsC: reg.Counter("serve.fast.cache_hits"),
		fastUnavailC:   reg.Counter("serve.fast.unavailable"),
		fastLatencyC:   reg.Counter("serve.fast.latency_us_total"),
		evictedC:       reg.Counter("serve.jobs_evicted"),
	}
	cache.Logf = s.logf
	s.qCap.Set(int64(cfg.QueueDepth))
	s.publishCalibrationMetrics()
	return s, nil
}

// Cache exposes the server's shared result cache (resume notes,
// test stubbing via SetRunFunc).
func (s *Server) Cache() *experiments.Cache { return s.cache }

// Observability returns the registry behind /metrics.
func (s *Server) Observability() *obs.Registry { return s.reg }

func (s *Server) logf(format string, args ...interface{}) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// submit runs admission control under one lock acquisition: reject
// while draining, coalesce onto a live identical job, enforce the
// pending bound, otherwise register the job and start it; it waits
// for a worker slot in execute. On rejection, retry is the derived
// Retry-After in seconds.
func (s *Server) submit(j *job) (acc *job, coalesced bool, retry int, err error) {
	s.mu.Lock()
	s.evictLocked(time.Now())
	if s.draining {
		retry = s.retryAfterLocked()
		s.mu.Unlock()
		return nil, false, retry, errDraining
	}
	if prev, ok := s.active[j.key]; ok {
		prev.mu.Lock()
		prev.coalesced++
		prev.mu.Unlock()
		s.mu.Unlock()
		s.coalescedC.Inc()
		return prev, true, 0, nil
	}
	if s.pending >= s.cfg.QueueDepth {
		retry = s.retryAfterLocked()
		s.mu.Unlock()
		s.rejectedC.Inc()
		return nil, false, retry, errQueueFull
	}
	s.seq++
	j.id = s.jobID(s.seq)
	j.state = StateQueued
	j.created = time.Now()
	s.jobs[j.id] = j
	s.active[j.key] = j
	s.pending++
	s.jobWG.Add(1)
	pending := s.pending
	s.mu.Unlock()

	s.acceptedC.Inc()
	s.pendingG.Set(int64(pending))
	s.qDepth.Add(1)
	go s.execute(j)
	return j, false, 0, nil
}

// retryAfterLocked derives a Retry-After from observed service time:
// the backlog divided across the worker pool at the smoothed per-job
// execution time. Before any job has finished (no observation yet) it
// falls back to the 1-second floor, which also keeps
// TestQueueFullReturns429 deterministic. Caller holds s.mu.
func (s *Server) retryAfterLocked() int {
	if s.execEWMA <= 0 {
		return 1
	}
	secs := float64(s.pending) / float64(s.cfg.Workers) * s.execEWMA
	n := int(math.Ceil(secs))
	if n < 1 {
		n = 1
	}
	if n > 60 {
		n = 60
	}
	return n
}

// evictLocked drops terminal jobs that are over the retention TTL or
// past the size bound, oldest first. Caller holds s.mu. Evicted ids
// stay 410-recognizable through s.seq (ids are never reused).
func (s *Server) evictLocked(now time.Time) {
	for len(s.terminal) > 0 {
		ref := s.terminal[0]
		expired := s.cfg.JobRetention >= 0 && now.Sub(ref.at) > s.cfg.JobRetention
		if !expired && len(s.terminal) <= s.cfg.MaxTerminalJobs {
			return
		}
		s.terminal = s.terminal[1:]
		delete(s.jobs, ref.id)
		s.evictedC.Inc()
	}
}

// execute runs one accepted job once a worker slot is free.
func (s *Server) execute(j *job) {
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	s.qDepth.Add(-1)

	j.mu.Lock()
	wait := time.Since(j.created)
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
	s.qWaitLast.Set(wait.Microseconds())
	s.qWaitTotal.Add(uint64(wait.Microseconds()))

	var result any
	var err error
	switch j.kind {
	case "run":
		result, err = s.executeRun(j)
	case "sweep":
		result, err = s.executeSweep(j)
	default:
		err = fmt.Errorf("serve: unknown job kind %q", j.kind)
	}
	s.finish(j, result, err)
}

// finish moves j to its terminal state and releases its admission
// slot. Interrupted jobs (drain deadline cancelled them) keep any
// partial result attached.
func (s *Server) finish(j *job, result any, err error) {
	state := StateDone
	var msg string
	if err != nil {
		msg = err.Error()
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			state = StateInterrupted
		} else {
			state = StateFailed
		}
	}
	now := time.Now()
	j.mu.Lock()
	j.state = state
	j.errMsg = msg
	if result != nil {
		// A nil result (failed run) must not clobber an analytical
		// answer attached by the auto tier — a stale fast prediction
		// beats no answer, and the error field reports the failure.
		j.result = result
		j.fidelity = FidelityExact
	}
	j.finished = now
	execSecs := now.Sub(j.started).Seconds()
	j.mu.Unlock()

	s.mu.Lock()
	if s.active[j.key] == j {
		delete(s.active, j.key)
	}
	s.pending--
	pending := s.pending
	// Exponential smoothing of observed per-job execution time feeds
	// the derived Retry-After.
	if execSecs > 0 {
		if s.execEWMA <= 0 {
			s.execEWMA = execSecs
		} else {
			s.execEWMA = 0.7*s.execEWMA + 0.3*execSecs
		}
	}
	s.terminal = append(s.terminal, terminalRef{id: j.id, at: now})
	s.evictLocked(now)
	s.mu.Unlock()
	s.pendingG.Set(int64(pending))
	if state == StateDone {
		s.completedC.Inc()
	} else {
		s.failedC.Inc()
		s.logf("job %s %s: %s", j.id, state, msg)
	}
	s.jobWG.Done()
}

func (s *Server) executeRun(j *job) (any, error) {
	spec := j.spec
	var res *sim.Result
	var err error
	if j.tracer != nil {
		// A live tracer requires an actual simulation — a cache hit
		// would skip it and record nothing — so traced jobs bypass the
		// cache entirely, mirroring soesim -trace-events (DESIGN.md
		// §10 "cache hits record nothing").
		spec.Obs = &obs.Observer{Trace: j.tracer, Metrics: s.reg}
		res, err = s.cache.RunSpecFresh(s.baseCtx, spec)
	} else {
		res, err = s.cache.RunSpecContext(s.baseCtx, spec)
	}
	if err != nil {
		return nil, err
	}
	return runResultFrom(j.fingerprint, res), nil
}

func (s *Server) executeSweep(j *job) (any, error) {
	r, err := s.runnerFor(j.sweep.Scale)
	if err != nil {
		return nil, err
	}
	out := &SweepResult{}
	if len(j.sweep.Pairs) == 0 {
		// Full matrix: the pooled RunAllContext path distributes the 16 pairs
		// across the runner's workers.
		prs, err := r.RunAllContext(s.baseCtx)
		for _, pr := range prs {
			if pr != nil {
				out.Rows = append(out.Rows, rowFrom(pr))
			}
		}
		if err != nil {
			return s.checkpointSweep(j, out, err)
		}
		// A completed full matrix supersedes any interrupt marker left
		// by an earlier cut-short sweep over this cache directory.
		cli.ClearInterrupted("soeserve", s.cache)
		return out, nil
	}
	for _, name := range j.sweep.Pairs {
		pair, err := experiments.ParsePair(name)
		if err != nil {
			return out, err
		}
		pr, err := r.RunPairContext(s.baseCtx, pair)
		if err != nil {
			return s.checkpointSweep(j, out, err)
		}
		out.Rows = append(out.Rows, rowFrom(pr))
	}
	return out, nil
}

// checkpointSweep finalizes an interrupted or failed sweep: the rows
// completed so far stay attached to the job, and a drain cancellation
// additionally marks the result cache through the cli interrupt path,
// so the next process over the same cache directory resumes from
// every simulation that finished.
func (s *Server) checkpointSweep(j *job, out *SweepResult, err error) (any, error) {
	out.Incomplete = true
	out.Note = err.Error()
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		cli.MarkInterrupted("soeserve", s.cache, "drain cancelled "+j.id)
	}
	return out, err
}

// runnerFor returns the per-scale runner, creating it over the shared
// cache on first use.
func (s *Server) runnerFor(scaleName string) (*experiments.Runner, error) {
	key := scaleName
	if key == "" {
		key = "quick"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.runners[key]; ok {
		return r, nil
	}
	sc, err := scaleByName(key)
	if err != nil {
		return nil, err
	}
	r := experiments.NewRunnerWith(experiments.Options{
		Machine:    sim.DefaultMachine(),
		Scale:      sc,
		SameOffset: sameOffset(sc),
	}, s.cache)
	r.Workers = s.cfg.Workers
	s.runners[key] = r
	return r, nil
}

// job looks a job up by id.
func (s *Server) job(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Sweep on read too: submit/finish only fire on exact-tier traffic,
	// so without this a fast-tier-only workload would keep expired jobs
	// queryable past -job-retention.
	s.evictLocked(time.Now())
	j, ok := s.jobs[id]
	return j, ok
}

// isDraining reports whether admission has been closed.
func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// WaitIdle blocks until every accepted job has reached a terminal
// state. It is a test seam: tests settle the pipeline with it instead
// of polling (Drain waits on the same group itself).
func (s *Server) WaitIdle() { s.jobWG.Wait() }

// Drain stops accepting new jobs and waits for every accepted job to
// reach a terminal state: zero accepted-but-lost work. If ctx expires
// first, in-flight execution is cancelled — running jobs finish in
// state "interrupted", sweeps checkpoint completed rows and mark the
// cache — and Drain still waits for them to settle. It returns nil on
// a clean drain and ctx.Err() when the deadline forced cancellation.
// Safe to call more than once.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	idle := make(chan struct{})
	go func() {
		s.jobWG.Wait()
		close(idle)
	}()
	var err error
	select {
	case <-idle:
	case <-ctx.Done():
		err = ctx.Err()
		s.cancelJobs()
		<-idle
	}
	return err
}

// ---- HTTP layer ----

// Handler returns the service mux:
//
//	POST /v1/run             submit one simulation
//	POST /v1/sweep           submit a pair × F-level matrix
//	GET  /v1/jobs/{id}       job status + result
//	GET  /v1/jobs/{id}/trace Chrome-format event trace (when recorded)
//	GET  /v1/cache/{fp}      verified cache entry (peer fill, §13)
//	GET  /healthz            liveness + drain state
//	GET  /metrics            text dump of the obs registry
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/cache/{fp}", s.handleCacheGet)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
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

// decode parses a JSON request body bounded by Config.MaxBodyBytes.
// An over-limit body is a deterministic 413 (not a parse-dependent
// 400): MaxBytesReader stops reading at the bound, so a client
// streaming an oversized sweep cannot hold memory or mask the real
// cause in a JSON syntax error.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", tooBig.Limit)
			return false
		}
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// accept submits j and renders the admission outcome: 202 with the
// job handle (shared with earlier identical requests when coalesced),
// 429 + Retry-After on a full queue, 503 while draining. Retry-After
// is derived from the observed drain rate (retryAfterLocked). A
// non-nil fast answer (tier=auto) rides along in the 202 body so the
// caller has a usable number before the exact simulation lands.
func (s *Server) accept(w http.ResponseWriter, j *job, fast any) {
	acc, coalesced, retry, err := s.submit(j)
	switch {
	case errors.Is(err, errDraining):
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeError(w, http.StatusServiceUnavailable, "server is draining")
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeError(w, http.StatusTooManyRequests,
			"queue full (%d jobs pending); retry later", s.cfg.QueueDepth)
	default:
		body := map[string]any{
			"id":        acc.id,
			"state":     acc.snapshotState(),
			"coalesced": coalesced,
			"url":       "/v1/jobs/" + acc.id,
		}
		if fast != nil {
			body["fidelity"] = FidelityAnalytical
			body["result"] = fast
		}
		writeJSON(w, http.StatusAccepted, body)
	}
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var rq RunRequest
	if !s.decode(w, r, &rq) {
		return
	}
	tier, err := tierFor(rq.Tier, s.cfg.DefaultTier)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if rq.Trace && tier == TierFast {
		writeError(w, http.StatusBadRequest,
			"tier=fast cannot trace: the analytical model runs no simulation")
		return
	}
	spec, names, err := rq.buildSpec()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	fp, err := experiments.Fingerprint(spec)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "fingerprint: %v", err)
		return
	}

	var fast *FastRunResult
	if tier == TierFast || (tier == TierAuto && !rq.Trace) {
		fast, err = s.fastRunAnswer(rq, fp)
		if err != nil {
			s.fastUnavailC.Inc()
			if tier == TierFast {
				writeError(w, http.StatusUnprocessableEntity, "fast tier cannot answer: %v", err)
				return
			}
			// auto degrades to exact-only rather than failing the job.
			s.logf("fast answer unavailable for %s: %v", fp, err)
			fast = nil
		} else {
			s.fastC.Inc()
		}
		if tier == TierFast {
			writeJSON(w, http.StatusOK, fast)
			return
		}
	}

	j := &job{
		kind:        "run",
		key:         fp,
		fingerprint: fp,
		threadNames: names,
		run:         rq,
		spec:        spec,
	}
	if rq.Trace {
		// Traced and untraced twins must not coalesce: the untraced job
		// would record nothing.
		j.key = fp + "|trace"
		j.tracer = obs.NewTracer(s.cfg.TraceCap)
	}
	if fast != nil {
		j.attachFast(fast)
	}
	s.accept(w, j, anyOrNil(fast))
}

// anyOrNil keeps a typed-nil *FastRunResult from becoming a non-nil
// interface in the 202 body.
func anyOrNil(fast *FastRunResult) any {
	if fast == nil {
		return nil
	}
	return fast
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var rq SweepRequest
	if !s.decode(w, r, &rq) {
		return
	}
	tier, err := tierFor(rq.Tier, s.cfg.DefaultTier)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := rq.validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	var fast *FastSweepResult
	if tier == TierFast || tier == TierAuto {
		fast, err = s.fastSweepAnswer(rq)
		if err != nil {
			s.fastUnavailC.Inc()
			if tier == TierFast {
				writeError(w, http.StatusUnprocessableEntity, "fast tier cannot answer: %v", err)
				return
			}
			s.logf("fast sweep unavailable: %v", err)
			fast = nil
		} else {
			s.fastC.Inc()
		}
		if tier == TierFast {
			writeJSON(w, http.StatusOK, fast)
			return
		}
	}

	j := &job{kind: "sweep", key: rq.sweepKey(), sweep: rq}
	if fast != nil {
		j.attachFast(fast)
		s.accept(w, j, fast)
		return
	}
	s.accept(w, j, nil)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.job(id)
	if !ok {
		if s.wasEvicted(id) {
			writeError(w, http.StatusGone, "job %q evicted after retention; results remain in the content-addressed cache", id)
			return
		}
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

// jobID renders a job id: dense sequence numbers, prefixed with the
// node name in cluster deployments so ids are fleet-unique.
func (s *Server) jobID(n int) string {
	if s.cfg.NodeName == "" {
		return fmt.Sprintf("job-%06d", n)
	}
	return fmt.Sprintf("%s-job-%06d", s.cfg.NodeName, n)
}

// wasEvicted reports whether id names a job this process once issued
// but no longer retains: ids are dense (jobID up to seq), so any
// parseable id at or below the sequence counter that is absent from
// the map must have been evicted. An id carrying another node's name
// (or none, on a named node) was never ours and stays a plain 404.
func (s *Server) wasEvicted(id string) bool {
	if s.cfg.NodeName != "" {
		rest, ok := strings.CutPrefix(id, s.cfg.NodeName+"-")
		if !ok {
			return false
		}
		id = rest
	}
	var n int
	if _, err := fmt.Sscanf(id, "job-%06d", &n); err != nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return n >= 1 && n <= s.seq
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	tr := j.traceReady()
	if tr == nil {
		writeError(w, http.StatusNotFound,
			"no trace for job %s: request it with \"trace\": true and note that cache hits skip the simulation and record nothing", j.id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := obs.WriteChromeTrace(w, tr.Events(), obs.MetaFor(tr, j.threadNames)); err != nil {
		s.logf("trace export for %s: %v", j.id, err)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ok": false, "draining": true})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "draining": false})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if cl := s.Peers(); cl != nil {
		cl.Snapshot() // refresh cluster.breaker_open / cluster.nodes_* gauges
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if _, err := s.reg.WriteTo(w); err != nil {
		s.logf("metrics dump: %v", err)
	}
}
