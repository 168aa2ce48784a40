package serve

import (
	"sync"
	"time"

	"soemt/internal/obs"
	"soemt/internal/sim"
)

// Job states. A job is terminal in StateDone, StateFailed or
// StateInterrupted; interrupted jobs were cut short by the drain
// deadline and may still carry a partial result (sweeps checkpoint
// their completed rows).
const (
	StateQueued      = "queued"
	StateRunning     = "running"
	StateDone        = "done"
	StateFailed      = "failed"
	StateInterrupted = "interrupted"
)

// job is one accepted unit of work. Identity fields (id, kind, key,
// spec, tracer, …) are written once at submit time and read-only
// afterwards; the mutable lifecycle fields are guarded by mu.
type job struct {
	id          string
	kind        string // "run" | "sweep"
	key         string // coalescing key (spec fingerprint or sweep digest)
	fingerprint string // run jobs: content-addressed cache key
	threadNames []string
	tracer      *obs.Tracer

	sweep SweepRequest
	spec  sim.Spec

	mu        sync.Mutex
	state     string
	coalesced uint64 // additional requests this job absorbed
	created   time.Time
	started   time.Time
	finished  time.Time
	errMsg    string
	result    any
	fidelity  string // "" | FidelityAnalytical | FidelityExact
}

// attachFast seeds the job with an analytical fast-tier answer
// (tier=auto). The seed never overwrites a result that is already
// attached — by the time a coalesced request computes its fast answer,
// the shared job may already carry the exact one.
func (j *job) attachFast(fast any) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.result == nil {
		j.result = fast
		j.fidelity = FidelityAnalytical
	}
}

// JobView is the wire representation of a job (GET /v1/jobs/{id}).
type JobView struct {
	ID                 string `json:"id"`
	Kind               string `json:"kind"`
	State              string `json:"state"`
	CoalescedRequests  uint64 `json:"coalesced_requests,omitempty"`
	Created            string `json:"created"`
	Started            string `json:"started,omitempty"`
	Finished           string `json:"finished,omitempty"`
	QueueWaitMicros    int64  `json:"queue_wait_us,omitempty"`
	Error              string `json:"error,omitempty"`
	Fidelity           string `json:"fidelity,omitempty"`
	Result             any    `json:"result,omitempty"`
	Trace              string `json:"trace,omitempty"`
	TraceDroppedEvents uint64 `json:"trace_dropped_events,omitempty"`
}

// terminal reports whether state is final.
func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateInterrupted
}

func (j *job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:                j.id,
		Kind:              j.kind,
		State:             j.state,
		CoalescedRequests: j.coalesced,
		Created:           j.created.Format(time.RFC3339Nano),
		Error:             j.errMsg,
		Fidelity:          j.fidelity,
		Result:            j.result,
	}
	if !j.started.IsZero() {
		v.Started = j.started.Format(time.RFC3339Nano)
		v.QueueWaitMicros = j.started.Sub(j.created).Microseconds()
	}
	if !j.finished.IsZero() {
		v.Finished = j.finished.Format(time.RFC3339Nano)
	}
	if j.tracer != nil && terminal(j.state) && j.tracer.Len() > 0 {
		v.Trace = "/v1/jobs/" + j.id + "/trace"
		v.TraceDroppedEvents = j.tracer.Dropped()
	}
	return v
}

// snapshotState returns the current lifecycle state.
func (j *job) snapshotState() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// traceReady returns the tracer if the job finished with recorded
// events, nil otherwise.
func (j *job) traceReady() *obs.Tracer {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.tracer == nil || !terminal(j.state) || j.tracer.Len() == 0 {
		return nil
	}
	return j.tracer
}
