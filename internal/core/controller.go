package core

import (
	"fmt"
	"math"
	"slices"

	"soemt/internal/obs"
	"soemt/internal/pipeline"
	"soemt/internal/stats"
	"soemt/internal/workload"
)

// Config parameterises the SOE controller. Defaults follow §4.1 of the
// paper: Δ = 250,000 cycles, max-cycles quota 50,000, a 6-cycle drain,
// and a constant 300-cycle miss latency for the IPC_ST estimator.
type Config struct {
	Delta          uint64  // counter sampling period (cycles)
	MaxCyclesQuota uint64  // per-dispatch cycle limit (< Delta/N)
	DrainCycles    uint64  // pipeline drain length on a switch
	MissLat        float64 // assumed average memory latency (Eq. 13)
	Policy         Policy  // quota policy (EventOnly, Fairness, TimeShare)

	// Extensions and ablations (DESIGN.md §5):
	NaiveDeficit   bool // reset deficit on switch-in instead of carrying leftover
	CountAllMisses bool // count every flagged miss, not only switch-causing ones
	MeasureMissLat bool // estimate Miss_lat from observed stalls (§6 extension)
	SwitchOnPause  bool // treat retired PAUSE as a switch event (§6 extension)
	SwitchOnL1Miss bool // switch on unresolved L1 misses too (§6 extension)

	// SmoothAlpha, when in (0, 1), applies exponential smoothing to
	// the per-window IPM and CPM estimates before Eq. 9:
	// est = alpha*window + (1-alpha)*previous. The paper uses raw
	// windows (alpha = 0 or 1 here); smoothing damps the estimate
	// oscillation that strict enforcement (F = 1) induces when forced
	// switches hide misses from the trigger-based counter.
	SmoothAlpha float64
}

// DefaultConfig returns the paper's controller parameters.
func DefaultConfig() Config {
	return Config{
		Delta:          250_000,
		MaxCyclesQuota: 50_000,
		DrainCycles:    6,
		MissLat:        300,
		Policy:         EventOnly{},
	}
}

// ConfigError reports an invalid controller configuration value.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return "core: invalid config: " + e.Field + ": " + e.Reason
}

// Validate reports controller configuration errors: a missing policy,
// a policy that implements both Granter and Culler (the controller
// never combines grant ordering with culling), a zero drain (the
// switch mechanism needs a positive pipeline-drain cost), a negative
// assumed miss latency, or a smoothing factor outside [0, 1].
func (c Config) Validate() error {
	if c.Policy == nil {
		return &ConfigError{"Policy", "must be set (EventOnly, Fairness, TimeShare)"}
	}
	_, grants := c.Policy.(Granter)
	if _, culls := c.Policy.(Culler); grants && culls {
		return &ConfigError{"Policy", "must not implement both Granter and Culler"}
	}
	if c.DrainCycles == 0 {
		return &ConfigError{"DrainCycles", "must be positive"}
	}
	if c.MissLat < 0 {
		return &ConfigError{"MissLat", "must be non-negative"}
	}
	if c.SmoothAlpha < 0 || c.SmoothAlpha > 1 {
		return &ConfigError{"SmoothAlpha", "must be in [0, 1]"}
	}
	return nil
}

// Thread is one hardware thread context under SOE control.
type Thread struct {
	Name   string
	Stream *workload.Stream
	Events []pipeline.InjectedStall

	counters stats.Window // the three per-thread hardware counters
	retired  uint64       // instructions retired since the last stats reset
	deficit  float64      // §3.2 deficit counter
	quota    float64      // current IPSw_j (0 = no forced switches)

	firstRetireSeen bool   // running-cycle attribution starts at first retire
	switchInAt      uint64 // cycle the thread was last switched in
	lastMissSeq     uint64 // dedupes miss counting while the head stalls
	hasLastMiss     bool
	eventIdx        int // persisted injected-event cursor

	visits      uint64 // completed dispatches (switch-outs)
	visitInstrs uint64 // instructions retired across completed visits
	visitMark   uint64 // retired count at the last switch-in

	smIPM, smCPM float64 // exponentially smoothed estimates (SmoothAlpha)
	smValid      bool
}

// Visits returns the number of completed dispatches since the last
// stats reset.
func (t *Thread) Visits() uint64 { return t.visits }

// AvgVisitInstrs returns the mean instructions retired per completed
// dispatch — the realized instructions-per-switch the deficit
// mechanism regulates toward IPSw.
func (t *Thread) AvgVisitInstrs() float64 {
	if t.visits == 0 {
		return 0
	}
	return float64(t.visitInstrs) / float64(t.visits)
}

// Counters returns the thread's accumulated hardware counters since
// the last stats reset.
func (t *Thread) Counters() stats.Counters { return t.counters.Totals }

// SwitchStats counts thread switches by cause.
type SwitchStats struct {
	Miss     uint64 // last-level cache miss at the ROB head
	Quota    uint64 // deficit counter reached zero (fairness enforcement)
	MaxQuota uint64 // max-cycles safety quota
	Pause    uint64 // PAUSE hint (§6 extension)
	L1Miss   uint64 // unresolved L1 miss at the head (§6 extension)
}

// bump counts one switch under the cause chosen by Step. The cause
// vocabulary is obs.Cause so the tracer and the aggregate stats can
// never disagree about why a switch happened.
func (s *SwitchStats) bump(cause obs.Cause) {
	switch cause {
	case obs.CauseMiss:
		s.Miss++
	case obs.CauseQuota:
		s.Quota++
	case obs.CauseMaxCycles:
		s.MaxQuota++
	case obs.CausePause:
		s.Pause++
	case obs.CauseL1Miss:
		s.L1Miss++
	}
}

// Forced returns switches induced by the mechanism rather than by
// misses (the quantity plotted in Figure 7).
func (s SwitchStats) Forced() uint64 { return s.Quota + s.MaxQuota + s.Pause }

// Total returns all switches.
func (s SwitchStats) Total() uint64 { return s.Miss + s.L1Miss + s.Forced() }

// SampleThread is the per-thread slice of one Δ sample, kept for the
// Figure 5 time series.
type SampleThread struct {
	EstIPCST  float64 // Eq. 13 estimate from the window counters
	WindowIPC float64 // instructions retired this window / window cycles (IPC_SOE_j)
	Quota     float64 // IPSw_j chosen for the next window
	Window    stats.Counters
}

// Sample is one Δ-cycle sampling record.
type Sample struct {
	Cycle   uint64
	Threads []SampleThread
}

// Controller drives the pipeline through SOE multithreading.
type Controller struct {
	pipe    *pipeline.Pipeline
	cfg     Config
	threads []*Thread

	now          uint64
	resetAt      uint64 // cycle of the last stats reset
	sampleAt     uint64 // cycle of the last Δ sample (or stats reset)
	nextSampleAt uint64 // next Δ boundary (resetAt + k·Delta, k ≥ 1); 0 when Delta == 0
	truncated    bool   // the last Run hit its maxCycles cap
	cur          int
	switches     SwitchStats
	samples      []Sample
	missLatSum   float64
	missLatN     uint64
	engine       Engine  // idle-stretch engine used by Advance
	obs          *ctlObs // nil = observability detached (the common case)

	// Policy-zoo mechanism state (DESIGN.md §15). For policies that
	// implement neither Granter nor Culler, granter and culler stay nil,
	// active stays all-true, and every path below reduces exactly to the
	// seed pair engine — the N = 2 differential suite pins this.
	active      []bool    // dispatch-eligibility mask (Culler policies)
	granter     Granter   // non-nil: WFQ grant ordering replaces round-robin
	culler      Culler    // non-nil: policy may demote threads at samples
	grantCredit []float64 // WFQ virtual time per thread (granter only)
	grantW      []float64 // per-thread grant weights from the last sample
	sampleOrd   int       // 1-based Δ-sample ordinal (Culler probe windows)
	peakAggIPC  float64   // best aggregate window IPC seen (Culler)
}

// ctlObs holds the controller's observability hooks: the event tracer
// plus registry counters pre-resolved at SetObserver time so event
// sites pay one atomic add, never a map lookup. A nil *ctlObs disables
// everything at the cost of one pointer check per event site (switch,
// sample, skip — never per cycle), which is how the ≤2% disabled
// overhead budget is met.
type ctlObs struct {
	tr *obs.Tracer

	swMiss, swQuota, swMaxQ, swPause, swL1 *obs.Counter
	skipWindows, skipCycles, samples       *obs.Counter
	cullDemote, cullReact                  *obs.Counter
}

// SetObserver attaches (or, with nil, detaches) an observability sink.
// Observability is strictly read-only: attaching an observer never
// changes the controller's produced results — the fast-forward
// equivalence matrix in internal/sim enforces this bit-identically.
func (c *Controller) SetObserver(o *obs.Observer) {
	if o == nil || (o.Trace == nil && o.Metrics == nil) {
		c.obs = nil
		return
	}
	reg := o.Metrics // nil-safe: a nil registry hands out nil counters
	c.obs = &ctlObs{
		tr:          o.Trace,
		swMiss:      reg.Counter("core.switch.miss"),
		swQuota:     reg.Counter("core.switch.quota"),
		swMaxQ:      reg.Counter("core.switch.max_cycles"),
		swPause:     reg.Counter("core.switch.pause"),
		swL1:        reg.Counter("core.switch.l1_miss"),
		skipWindows: reg.Counter("core.skip.windows"),
		skipCycles:  reg.Counter("core.skip.cycles"),
		samples:     reg.Counter("core.samples"),
		cullDemote:  reg.Counter("core.cull.demotions"),
		cullReact:   reg.Counter("core.cull.reactivations"),
	}
}

// countSwitch mirrors one switch into the registry.
func (h *ctlObs) countSwitch(cause obs.Cause) {
	switch cause {
	case obs.CauseMiss:
		h.swMiss.Inc()
	case obs.CauseQuota:
		h.swQuota.Inc()
	case obs.CauseMaxCycles:
		h.swMaxQ.Inc()
	case obs.CausePause:
		h.swPause.Inc()
	case obs.CauseL1Miss:
		h.swL1.Inc()
	}
}

// NewController builds a controller over pipe and thread contexts.
// The first thread is switched in immediately. Configuration errors
// (empty thread list, nil pipeline, invalid Config) are returned, not
// panicked, so bad CLI flags and sweep values surface cleanly.
func NewController(pipe *pipeline.Pipeline, cfg Config, threads []*Thread) (*Controller, error) {
	if pipe == nil {
		return nil, &ConfigError{"pipeline", "must be non-nil"}
	}
	if len(threads) == 0 {
		return nil, &ConfigError{"threads", "at least one thread is required"}
	}
	for i, t := range threads {
		if t == nil || t.Stream == nil {
			return nil, &ConfigError{"threads", fmt.Sprintf("thread %d has no instruction stream", i)}
		}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{pipe: pipe, cfg: cfg, threads: threads}
	if cfg.Delta > 0 {
		c.nextSampleAt = cfg.Delta
	}
	c.active = make([]bool, len(threads))
	for i := range c.active {
		c.active[i] = true
	}
	if g, ok := cfg.Policy.(Granter); ok {
		c.granter = g
		c.grantCredit = make([]float64, len(threads))
		c.grantW = make([]float64, len(threads))
		for i := range c.grantW {
			c.grantW[i] = 1
		}
	}
	if cu, ok := cfg.Policy.(Culler); ok {
		c.culler = cu
	}
	pipe.SetStream(0, threads[0].Stream, 0)
	pipe.SetEvents(threads[0].Events)
	threads[0].eventIdx = pipe.EventIndex()
	return c, nil
}

// CopyFrom overwrites c's machine and mechanism state with src's: the
// controller's clocks, samples and switch statistics, every thread's
// counters, quota, deficit and stream position, and (through
// Pipeline.CopyFrom) the pipeline. Both controllers must drive the
// same thread specs on identically configured pipelines. c keeps its
// own configuration (policy included), engine and observer, so a copy
// continues under c's policy from exactly src's state; callers copy
// the memory hierarchy and branch unit themselves.
func (c *Controller) CopyFrom(src *Controller) {
	for i, t := range c.threads {
		t.copyFrom(src.threads[i])
	}
	cur := c.threads[src.cur]
	c.pipe.CopyFrom(src.pipe, cur.Stream, cur.Events)
	c.now, c.resetAt, c.sampleAt, c.nextSampleAt = src.now, src.resetAt, src.sampleAt, src.nextSampleAt
	c.truncated, c.cur, c.switches = src.truncated, src.cur, src.switches
	c.samples = slices.Clone(src.samples)
	for i := range c.samples {
		c.samples[i].Threads = slices.Clone(c.samples[i].Threads)
	}
	c.missLatSum, c.missLatN = src.missLatSum, src.missLatN
	copy(c.active, src.active)
	copy(c.grantCredit, src.grantCredit)
	copy(c.grantW, src.grantW)
	c.sampleOrd, c.peakAggIPC = src.sampleOrd, src.peakAggIPC
}

// copyFrom overwrites t's mechanism state and counters with src's and
// positions its stream like src's. t keeps its name, stream and event
// schedule.
func (t *Thread) copyFrom(src *Thread) {
	name, stream, events := t.Name, t.Stream, t.Events
	*t = *src
	t.Name, t.Stream, t.Events = name, stream, events
	t.Stream.CopyFrom(src.Stream)
}

// Now returns the global cycle count.
func (c *Controller) Now() uint64 { return c.now }

// NextSampleAt returns the cycle of the next Δ sample, the point at
// which the controller next consults its policy (besides ResetStats's
// flush sample); 0 when sampling is off (Delta == 0).
func (c *Controller) NextSampleAt() uint64 { return c.nextSampleAt }

// Threads returns the thread contexts.
func (c *Controller) Threads() []*Thread { return c.threads }

// Switches returns switch counts since the last stats reset.
func (c *Controller) Switches() SwitchStats { return c.switches }

// Samples returns the Δ sampling records since the last stats reset.
func (c *Controller) Samples() []Sample { return c.samples }

// Truncated reports whether Advance stopped the measurement at its
// maxCycles cap before every thread reached its retirement target.
// Cleared by ResetStats.
func (c *Controller) Truncated() bool { return c.truncated }

// hasOtherActive reports whether any thread besides the running one is
// dispatch-eligible — the precondition for any thread switch. Always
// true for multi-thread runs under non-Culler policies.
func (c *Controller) hasOtherActive() bool {
	for i, on := range c.active {
		if on && i != c.cur {
			return true
		}
	}
	return false
}

// pickNext chooses the thread a switch dispatches to. Under a Granter
// policy it is the eligible thread with the least WFQ grant credit
// (ties to the lowest index); otherwise the next eligible thread in
// round-robin order, which for an all-active mask is exactly the seed
// engine's (cur+1) mod N rotation. Returns cur when no other thread is
// eligible; Step suppresses the switch in that case.
func (c *Controller) pickNext() int {
	n := len(c.threads)
	if c.granter != nil {
		best := -1
		for i := 0; i < n; i++ {
			if i == c.cur || !c.active[i] {
				continue
			}
			if best < 0 || c.grantCredit[i] < c.grantCredit[best] {
				best = i
			}
		}
		if best >= 0 {
			return best
		}
		return c.cur
	}
	for off := 1; off < n; off++ {
		if j := (c.cur + off) % n; c.active[j] {
			return j
		}
	}
	return c.cur
}

// Engine selects how Advance crosses provably idle cycle stretches.
// Both engines produce bit-identical results — the equivalence matrix
// in internal/sim enforces this — they differ only in cost:
//
//   - EngineCycleByCycle is the reference: every cycle is a real Step.
//   - EngineFastForward certifies idleness with IdleScan and jumps to
//     its next-event horizon; it is the default production engine.
type Engine uint8

const (
	EngineCycleByCycle Engine = iota
	EngineFastForward
)

// EngineEventWheel names the removed event-wheel engine.
//
// Deprecated: the event wheel is gone; this alias selects EngineFastForward.
const EngineEventWheel = EngineFastForward

// String returns the spec-level engine name.
func (e Engine) String() string {
	if e == EngineFastForward {
		return "fast-forward"
	}
	return "cycle-by-cycle"
}

// SetEngine selects the idle-stretch engine used by Advance. Stretches
// where the pipeline provably cannot make progress are jumped in bulk
// instead of stepped cycle by cycle (except under the cycle-by-cycle
// reference engine). Results are bit-identical across engines — the
// jump is clipped to every boundary a real Step reacts to (Δ-sample
// edges, the max-cycles quota edge, the head-miss switch trigger,
// slice budgets and the MaxCycles cap) and the per-cycle counter
// updates are applied in bulk (see skipIdle). Defaults to
// EngineCycleByCycle; sim.RunContext selects per Spec.Engine.
func (c *Controller) SetEngine(e Engine) { c.engine = e }

// MeasuredMissLat returns the mean observed head-stall latency, or the
// configured constant when measurement is off or empty.
func (c *Controller) MeasuredMissLat() float64 {
	if !c.cfg.MeasureMissLat || c.missLatN == 0 {
		return c.cfg.MissLat
	}
	return c.missLatSum / float64(c.missLatN)
}

// ResetStats zeroes all measurement state (counters, switch stats,
// samples, per-thread retired counts) while preserving machine and
// mechanism state (quotas, deficits, caches). Call at the end of the
// warmup phase, mirroring the paper's exclusion of the first 1M
// instructions.
//
// Quotas are recomputed from the warmup window first, so measurement
// starts with fresh IPSw values even when the warmup was shorter than
// one full Δ period.
func (c *Controller) ResetStats() {
	if c.cfg.Delta > 0 && c.now > c.resetAt {
		c.sample()
	}
	for _, t := range c.threads {
		t.counters = stats.Window{}
		t.retired = 0
		t.visits, t.visitInstrs, t.visitMark = 0, 0, 0
	}
	c.switches = SwitchStats{}
	c.samples = nil
	c.missLatSum, c.missLatN = 0, 0
	c.truncated = false
	c.resetAt = c.now
	c.sampleAt = c.now
	if c.cfg.Delta > 0 {
		c.nextSampleAt = c.now + c.cfg.Delta
	}
	c.pipe.ResetMetrics()
	c.pipe.Hierarchy().ResetStats()
}

// Advance runs at most budget cycles of the measurement that began at
// absolute cycle start, and reports whether the run is complete:
// either every thread reached its retirement target, or maxCycles
// elapsed since start (0 = no limit), which also marks the run
// truncated. Callers loop over Advance with a small budget and check
// cancellation and the watchdog between slices (see sim.RunContext).
func (c *Controller) Advance(target, maxCycles, start, budget uint64) bool {
	for spent := uint64(0); ; {
		done := true
		for _, t := range c.threads {
			if t.retired < target {
				done = false
				break
			}
		}
		if done {
			return true
		}
		if maxCycles > 0 && c.now-start >= maxCycles {
			c.truncated = true
			return true
		}
		if spent >= budget {
			return false
		}
		if c.engine != EngineCycleByCycle {
			// Clip the jump to the slice budget and the MaxCycles cap so
			// slice boundaries and truncation points match the
			// cycle-by-cycle engine exactly.
			limit := c.now + (budget - spent)
			if maxCycles > 0 {
				if cap := start + maxCycles; cap < limit {
					limit = cap
				}
			}
			if n := c.skipIdle(limit); n > 0 {
				spent += n
				continue
			}
		}
		c.Step()
		spent++
	}
}

// skipIdle fast-forwards across a stretch of cycles in which the
// machine provably makes no progress, advancing now to the next-event
// horizon (clipped to limit and to every controller boundary a real
// Step reacts to) and applying the per-cycle accounting in bulk. It
// returns the number of cycles skipped; 0 means the coming cycle may
// do real work (or trigger a sample or switch) and the caller must
// Step normally.

func (c *Controller) skipIdle(limit uint64) uint64 {
	cur := c.threads[c.cur]
	// With no other dispatch-eligible thread (single-thread run, or a
	// Culler demoted every co-runner) Step suppresses all switches, so
	// the skip must use the single-thread accounting rules. The mask
	// only changes at Δ samples and skips stop at Δ boundaries, so the
	// decision is stable across the whole window.
	multi := len(c.threads) > 1 && c.hasOtherActive()

	// A Step at now itself would sample or force a switch: no skip.
	if c.cfg.Delta > 0 && c.now == c.nextSampleAt {
		return 0
	}
	if multi && cur.quota > 0 && cur.deficit <= 0 && cur.firstRetireSeen {
		return 0
	}
	if multi && c.cfg.MaxCyclesQuota > 0 &&
		c.now >= cur.switchInAt && c.now-cur.switchInAt >= c.cfg.MaxCyclesQuota {
		return 0
	}

	end, rep, idle := c.pipe.IdleScan(c.now)
	if !idle {
		return 0
	}
	if limit < end {
		end = limit
	}
	// Stop at the next Δ boundary so the Step there samples.
	if c.cfg.Delta > 0 && c.nextSampleAt < end {
		end = c.nextSampleAt
	}
	if multi && c.cfg.MaxCyclesQuota > 0 {
		// Stop at the max-cycles quota edge so the Step there switches.
		if edge := cur.switchInAt + c.cfg.MaxCyclesQuota; edge < end {
			end = edge
		}
	}

	// Replicate the controller's per-cycle reaction to the repeated
	// head-pending report retire() would emit during the window.
	if rep.Miss || rep.L1 {
		until := rep.Until
		if until > end {
			until = end
		}
		if rep.From < until {
			if multi && (rep.Miss || (rep.L1 && c.cfg.SwitchOnL1Miss)) {
				// The first report forces a thread switch: stop the skip
				// there and let the real Step count it and switch.
				if rep.From <= c.now {
					return 0
				}
				end = rep.From
			} else if rep.Miss {
				// Single-thread run: the report repeats every cycle but
				// only the first sighting of a given architectural miss
				// counts (the lastMissSeq dedup in Step).
				if !cur.hasLastMiss || cur.lastMissSeq != rep.Seq {
					cur.hasLastMiss = true
					cur.lastMissSeq = rep.Seq
					if !c.cfg.CountAllMisses {
						cur.counters.Totals.Misses++
					}
					if c.cfg.MeasureMissLat && rep.ResolveAt > rep.From {
						c.missLatSum += float64(rep.ResolveAt - rep.From)
						c.missLatN++
					}
				}
			}
		}
	}

	if end <= c.now+1 {
		return 0
	}
	n := end - c.now
	c.pipe.AdvanceIdle(c.now, n)
	if cur.firstRetireSeen {
		cur.counters.Totals.Cycles += n
	}
	if h := c.obs; h != nil {
		h.skipWindows.Inc()
		h.skipCycles.Add(n)
		if h.tr != nil {
			h.tr.Record(obs.Event{
				Cycle: c.now, Kind: obs.KindSkip, Thread: int32(c.cur), N: n,
			})
		}
	}
	c.now = end
	return n
}

// TotalRetired sums instructions retired across all threads since the
// last stats reset. It is the forward-progress signal watched by the
// stall detector in sim.RunContext.
func (c *Controller) TotalRetired() uint64 {
	var sum uint64
	for _, t := range c.threads {
		sum += t.retired
	}
	return sum
}

// Step advances the machine by one cycle.
func (c *Controller) Step() {
	// nextSampleAt is the maintained form of the Δ-boundary predicate
	// (now > resetAt && (now-resetAt)%Delta == 0): cheaper than two
	// 64-bit divisions per cycle, and exact because now never jumps a
	// boundary (skipIdle clips to it).
	if c.now == c.nextSampleAt && c.cfg.Delta > 0 {
		c.sample()
		c.nextSampleAt += c.cfg.Delta
	}

	demandBefore := c.pipe.Metrics.DemandMisses
	r := c.pipe.Cycle(c.now)
	cur := c.threads[c.cur]

	if r.Retired > 0 {
		cur.firstRetireSeen = true
	}
	if cur.firstRetireSeen {
		cur.counters.Totals.Cycles++
	}
	cur.counters.Totals.Instrs += uint64(r.Retired)
	cur.retired += uint64(r.Retired)
	cur.deficit -= float64(r.Retired)
	if c.cfg.CountAllMisses {
		cur.counters.Totals.Misses += c.pipe.Metrics.DemandMisses - demandBefore
	}

	multi := len(c.threads) > 1
	cause := obs.CauseNone

	if r.HeadMissPending {
		if !cur.hasLastMiss || cur.lastMissSeq != r.HeadMissSeq {
			cur.hasLastMiss = true
			cur.lastMissSeq = r.HeadMissSeq
			if !c.cfg.CountAllMisses {
				cur.counters.Totals.Misses++
			}
			if c.cfg.MeasureMissLat && r.HeadResolveAt > c.now {
				c.missLatSum += float64(r.HeadResolveAt - c.now)
				c.missLatN++
			}
		}
		if multi {
			cause = obs.CauseMiss
		}
	}
	if cause == obs.CauseNone && multi && c.cfg.SwitchOnL1Miss && r.HeadL1Pending {
		cause = obs.CauseL1Miss
	}
	if cause == obs.CauseNone && multi && c.cfg.SwitchOnPause && r.PauseRetired {
		cause = obs.CausePause
	}
	if cause == obs.CauseNone && multi && cur.quota > 0 && cur.deficit <= 0 && cur.firstRetireSeen {
		cause = obs.CauseQuota
	}
	if cause == obs.CauseNone && multi && c.cfg.MaxCyclesQuota > 0 &&
		c.now >= cur.switchInAt && c.now-cur.switchInAt >= c.cfg.MaxCyclesQuota {
		cause = obs.CauseMaxCycles
	}

	if cause != obs.CauseNone {
		// A switch with nowhere to go (every co-runner culled) is
		// suppressed entirely: no squash, no stats — the thread simply
		// keeps running, as in a single-thread machine.
		if next := c.pickNext(); next != c.cur {
			c.switches.bump(cause)
			c.switchThread(next, cause)
		}
	}
	c.now++
}

// switchThread squashes the pipeline and dispatches thread next (as
// chosen by pickNext; next != cur). cause records why the switch fired
// (miss-induced vs forced) for the event tracer and registry; the
// mechanism itself does not depend on it.
func (c *Controller) switchThread(nextIdx int, cause obs.Cause) {
	cur := c.threads[c.cur]
	if c.granter != nil {
		// Charge the completed visit to the outgoing thread's WFQ
		// credit: credit += visit_cycles / weight. The minimum 1-cycle
		// charge keeps zero-progress visits from monopolizing grants.
		visit := uint64(1)
		if c.now > cur.switchInAt {
			visit = c.now - cur.switchInAt
		}
		c.grantCredit[c.cur] += float64(visit) / c.grantW[c.cur]
	}
	cur.visits++
	cur.visitInstrs += cur.retired - cur.visitMark
	cur.eventIdx = c.pipe.EventIndex()
	resume := c.pipe.Squash()
	cur.Stream.Seek(resume)
	cur.firstRetireSeen = false
	// lastMissSeq deliberately persists across the switch: if the
	// thread returns before its miss resolves (possible when all other
	// threads are also miss-bound), the re-encountered stall triggers
	// another switch but is the SAME architectural miss and must not
	// inflate the Misses counter.

	prev := c.cur
	c.cur = nextIdx
	next := c.threads[c.cur]
	startAt := c.now + c.cfg.DrainCycles
	if next.quota > 0 {
		if c.cfg.NaiveDeficit {
			next.deficit = next.quota
		} else {
			// Carry the miss-truncated leftover (§3.2), saturating at
			// twice the quota so stale credit from a phase change
			// cannot disable enforcement indefinitely.
			next.deficit = math.Min(next.deficit+next.quota, 2*next.quota)
		}
	} else {
		next.deficit = 0
	}
	next.switchInAt = startAt
	next.visitMark = next.retired
	c.pipe.SetStream(c.cur, next.Stream, startAt)
	c.pipe.SetEventsFrom(next.Events, next.eventIdx)

	if h := c.obs; h != nil {
		h.countSwitch(cause)
		if h.tr != nil {
			h.tr.Record(obs.Event{
				Cycle: c.now, Kind: obs.KindSwitch, Cause: cause,
				Thread: int32(prev), A: cur.deficit, N: uint64(c.cur),
			})
			h.tr.Record(obs.Event{
				Cycle: c.now, Kind: obs.KindDeficit,
				Thread: int32(c.cur), A: next.deficit, B: next.quota,
			})
		}
	}
}

// sample reads the Δ-window counters, records the time series, and
// recomputes quotas through the policy (Eqs. 9, 11–13).
func (c *Controller) sample() {
	missLat := c.MeasuredMissLat()
	// The window normally spans a full Δ, but the flush sample emitted
	// by ResetStats covers only the cycles since the previous sample;
	// WindowIPC must divide by the cycles actually elapsed, not Δ.
	elapsed := c.now - c.sampleAt
	if elapsed == 0 {
		elapsed = c.cfg.Delta
	}
	samples := make([]ThreadSample, len(c.threads))
	rec := Sample{Cycle: c.now, Threads: make([]SampleThread, len(c.threads))}
	for i, t := range c.threads {
		win := t.counters.Sample()
		ts := ThreadSample{Window: win, IPM: win.IPM(), CPM: win.CPM()}
		if a := c.cfg.SmoothAlpha; a > 0 && a < 1 && win.Cycles > 0 {
			if t.smValid {
				t.smIPM = a*ts.IPM + (1-a)*t.smIPM
				t.smCPM = a*ts.CPM + (1-a)*t.smCPM
			} else {
				t.smIPM, t.smCPM, t.smValid = ts.IPM, ts.CPM, true
			}
			ts.IPM, ts.CPM = t.smIPM, t.smCPM
		}
		if den := ts.CPM + missLat; den > 0 {
			ts.EstST = ts.IPM / den
		}
		samples[i] = ts
		rec.Threads[i] = SampleThread{
			EstIPCST:  ts.EstST,
			WindowIPC: float64(win.Instrs) / float64(elapsed),
			Window:    win,
		}
	}
	quotas := c.cfg.Policy.Quotas(samples, missLat)
	for i, t := range c.threads {
		t.quota = quotas[i]
		rec.Threads[i].Quota = quotas[i]
	}
	c.samples = append(c.samples, rec)
	c.sampleAt = c.now
	c.sampleOrd++

	if c.culler != nil {
		var winInstrs uint64
		for i := range rec.Threads {
			winInstrs += rec.Threads[i].Window.Instrs
		}
		agg := float64(winInstrs) / float64(elapsed)
		if agg > c.peakAggIPC {
			c.peakAggIPC = agg
		}
		var wasActive []bool
		if c.obs != nil {
			wasActive = append([]bool(nil), c.active...)
		}
		c.culler.Cull(&CullState{
			Samples: samples, Active: c.active,
			Window: c.sampleOrd, AggIPC: agg, PeakIPC: c.peakAggIPC,
		})
		// The machine must always have somewhere to dispatch: an
		// over-eager cull that empties the mask re-activates the
		// running thread.
		any := false
		for _, on := range c.active {
			any = any || on
		}
		if !any {
			c.active[c.cur] = true
		}
		if c.obs != nil {
			// Mirror effective mask transitions (post empty-mask fixup)
			// into the registry so tests and dashboards can prove a
			// Culler policy actually demoted/reactivated mid-run.
			for i, was := range wasActive {
				if was && !c.active[i] {
					c.obs.cullDemote.Inc()
				} else if !was && c.active[i] {
					c.obs.cullReact.Inc()
				}
			}
		}
	}
	if c.granter != nil {
		w := c.granter.GrantWeights(samples)
		for i := range c.grantW {
			c.grantW[i] = 1
			if i < len(w) && finitePos(w[i]) {
				c.grantW[i] = w[i]
			}
		}
	}

	if h := c.obs; h != nil {
		h.samples.Inc()
		if h.tr != nil {
			for i, st := range rec.Threads {
				h.tr.Record(obs.Event{
					Cycle: c.now, Kind: obs.KindSample, Thread: int32(i),
					A: st.EstIPCST, B: st.WindowIPC, N: st.Window.Instrs,
				})
				h.tr.Record(obs.Event{
					Cycle: c.now, Kind: obs.KindQuota, Thread: int32(i),
					A: st.Quota,
				})
			}
		}
	}
}

// String summarizes controller state for debugging.
func (c *Controller) String() string {
	return fmt.Sprintf("soe{now=%d cur=%d threads=%d switches=%+v}",
		c.now, c.cur, len(c.threads), c.switches)
}
