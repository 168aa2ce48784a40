package obs

// Kind identifies the type of one traced event.
type Kind uint8

const (
	// KindSwitch is a thread switch: Thread is the outgoing thread,
	// Cause says why (miss-induced vs forced), N is the incoming
	// thread index, A the outgoing thread's deficit at the switch.
	KindSwitch Kind = iota + 1
	// KindSample is one thread's slice of a Δ-cycle counter sample:
	// A = estimated single-thread IPC (Eq. 13), B = window IPC,
	// N = instructions retired in the window.
	KindSample
	// KindQuota is a per-thread IPSw recomputation (Eq. 9) at a Δ
	// boundary: A = the new quota (0 = no forced switches).
	KindQuota
	// KindDeficit is a deficit-counter update at switch-in (§3.2):
	// Thread is the incoming thread, A = the new deficit, B = its
	// quota.
	KindDeficit
	// KindSkip is one fast-forward jump over certified-idle cycles
	// (DESIGN.md §9): Cycle is the start of the window, N its length,
	// Thread the running thread.
	KindSkip
	// KindSlice marks the end of one watchdog execution slice in
	// sim.RunContext: Cause carries the phase, N the slice budget.
	KindSlice
	// KindPhase marks a measurement-protocol phase start: Cause is
	// CauseWarmup or CauseMeasure.
	KindPhase
)

var kindNames = map[Kind]string{
	KindSwitch:  "switch",
	KindSample:  "sample",
	KindQuota:   "quota",
	KindDeficit: "deficit",
	KindSkip:    "skip",
	KindSlice:   "slice",
	KindPhase:   "phase",
}

// String returns the stable wire name used by the exporters.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return "unknown"
}

// Cause qualifies an event: the trigger of a thread switch, or the
// protocol phase of a slice/phase marker.
type Cause uint8

const (
	CauseNone      Cause = iota
	CauseMiss            // last-level cache miss at the ROB head
	CauseQuota           // deficit counter exhausted (forced fairness switch)
	CauseMaxCycles       // max-cycles safety quota
	CausePause           // retired PAUSE hint (§6 extension)
	CauseL1Miss          // unresolved L1 miss at the head (§6 extension)
	CauseWarmup          // phase marker: timing warmup (excluded from stats)
	CauseMeasure         // phase marker: measured run
)

var causeNames = map[Cause]string{
	CauseNone:      "",
	CauseMiss:      "miss",
	CauseQuota:     "quota",
	CauseMaxCycles: "max-cycles",
	CausePause:     "pause",
	CauseL1Miss:    "l1-miss",
	CauseWarmup:    "warmup",
	CauseMeasure:   "measure",
}

// String returns the stable wire name used by the exporters.
func (c Cause) String() string {
	if s, ok := causeNames[c]; ok {
		return s
	}
	return "unknown"
}

// Event is one fixed-size traced record. The payload fields A, B and N
// are interpreted per Kind (see the Kind constants); Thread is -1 for
// events not attributed to a thread.
type Event struct {
	Cycle  uint64
	Kind   Kind
	Cause  Cause
	Thread int32
	A, B   float64
	N      uint64
}

// DefaultTracerCap is the default ring capacity, sized so a quick-scale
// pair run (a few thousand switches plus tens of samples) fits with
// ample slack while bounding memory to tens of MB at worst.
const DefaultTracerCap = 1 << 20

// Tracer is a fixed-capacity flight recorder of Events. The ring keeps
// the most recent events; overflow evicts the oldest and counts into
// Dropped. Record appends with no allocation — the buffer is
// preallocated — and a nil *Tracer is a valid disabled tracer whose
// Record is a single nil check, so instrumented hot paths stay within
// the ≤2% disabled-overhead budget.
//
// A Tracer is NOT safe for concurrent use: it belongs to one
// simulation run, which is single-goroutine by construction. Exporters
// take the Events() copy, which is safe to hand elsewhere.
type Tracer struct {
	buf     []Event
	head    int // next write position
	n       int // events currently stored (<= cap)
	dropped uint64
}

// NewTracer returns a tracer holding up to capacity events
// (DefaultTracerCap when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTracerCap
	}
	return &Tracer{buf: make([]Event, capacity)}
}

// Record appends ev, evicting the oldest event when full. No-op on a
// nil tracer.
func (t *Tracer) Record(ev Event) {
	if t == nil {
		return
	}
	t.buf[t.head] = ev
	t.head++
	if t.head == len(t.buf) {
		t.head = 0
	}
	if t.n < len(t.buf) {
		t.n++
	} else {
		t.dropped++
	}
}

// Len returns the number of buffered events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// Dropped returns how many events were evicted by ring overflow.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Events returns the buffered events in record order (oldest first) as
// a fresh slice.
func (t *Tracer) Events() []Event {
	if t == nil || t.n == 0 {
		return nil
	}
	out := make([]Event, t.n)
	start := t.head - t.n
	if start < 0 {
		start += len(t.buf)
	}
	for i := 0; i < t.n; i++ {
		out[i] = t.buf[(start+i)%len(t.buf)]
	}
	return out
}
