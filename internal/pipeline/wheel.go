package pipeline

// Discrete-event engine support (DESIGN.md §16).
//
// The event wheel generalizes IdleScan's ad-hoc next-event computation
// into a persistent priority queue over the machine's pending state
// changes. Each pipeline stage is an event *source* with at most one
// pending event — the earliest future cycle at which that stage could
// act:
//
//	retire: max(head-of-ROB doneAt, injected-event-stall expiry)
//	issue:  the cached reservation-station wake bound
//	rename: the fetch-queue head's decode-ready cycle
//	fetch:  the fetch-stall expiry
//
// WheelScan refreshes each source from machine state (every refresh is
// O(1); unchanged times are deduplicated and cost no heap traffic),
// then pops the earliest valid event as the skip horizon. The idleness
// certification — the set of conditions under which skipping is
// disallowed outright — is exactly IdleScan's; only horizon ownership
// moves into the wheel. Safety does not depend on wheel precision:
// stale entries are lazily discarded, and any horizon that is at most
// the true next-event time merely ends a skip early, which the
// equivalence contract tolerates (the controller re-certifies at every
// resume point).

// Wheel event sources.
const (
	srcRetire uint8 = iota
	srcIssue
	srcRename
	srcFetch

	numWheelSrcs
)

type wheelEvent struct {
	at  uint64
	src uint8
}

// EventWheel is a lazy binary min-heap of per-source events. Each
// source has one authoritative scheduled time (cur); heap entries
// whose time no longer matches their source's are stale and are
// dropped on pop. Schedule with an unchanged time is a no-op, so
// steady stall states generate no heap churn.
type EventWheel struct {
	heap []wheelEvent
	cur  [numWheelSrcs]uint64 // 0 = source unscheduled
}

// Schedule sets src's pending event to cycle at (at > 0). Rescheduling
// with the same time is free; a changed time supersedes the old entry
// lazily.
func (w *EventWheel) Schedule(src uint8, at uint64) {
	if w.cur[src] == at {
		return
	}
	w.cur[src] = at
	w.heap = append(w.heap, wheelEvent{at: at, src: src})
	// Sift up.
	i := len(w.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if w.heap[parent].at <= w.heap[i].at {
			break
		}
		w.heap[parent], w.heap[i] = w.heap[i], w.heap[parent]
		i = parent
	}
}

// Cancel clears src's pending event. Its heap entry, if any, becomes
// stale and is dropped lazily.
func (w *EventWheel) Cancel(src uint8) { w.cur[src] = 0 }

// Min returns the earliest valid pending event without removing it
// (stale entries are discarded on the way). ok=false means no source
// has a pending event.
func (w *EventWheel) Min() (at uint64, src uint8, ok bool) {
	for len(w.heap) > 0 {
		top := w.heap[0]
		if w.cur[top.src] == top.at {
			return top.at, top.src, true
		}
		w.popTop()
	}
	return 0, 0, false
}

// Pop removes and returns the earliest valid pending event, clearing
// its source.
func (w *EventWheel) Pop() (at uint64, src uint8, ok bool) {
	at, src, ok = w.Min()
	if ok {
		w.cur[src] = 0
		w.popTop()
	}
	return at, src, ok
}

// Len returns the number of heap entries, including stale ones
// (exported for tests and introspection).
func (w *EventWheel) Len() int { return len(w.heap) }

// copyFrom makes w an exact copy of src, stale entries included.
func (w *EventWheel) copyFrom(src *EventWheel) {
	w.heap = append(w.heap[:0], src.heap...)
	w.cur = src.cur
}

// Reset empties the wheel.
func (w *EventWheel) Reset() {
	w.heap = w.heap[:0]
	for i := range w.cur {
		w.cur[i] = 0
	}
}

func (w *EventWheel) popTop() {
	last := len(w.heap) - 1
	w.heap[0] = w.heap[last]
	w.heap = w.heap[:last]
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(w.heap) && w.heap[l].at < w.heap[min].at {
			min = l
		}
		if r < len(w.heap) && w.heap[r].at < w.heap[min].at {
			min = r
		}
		if min == i {
			return
		}
		w.heap[i], w.heap[min] = w.heap[min], w.heap[i]
		i = min
	}
}

// WheelScan is the discrete-event engine's idle certification: it
// refreshes the event wheel from machine state and reports whether the
// pipeline is idle at cycle now, with the wheel's earliest event as
// the skip horizon. Semantics match IdleScan exactly (same
// certification conditions, same report, bit-identical downstream
// results); the horizon is owned by the wheel.
func (p *Pipeline) WheelScan(now uint64) (horizon uint64, report IdleReport, idle bool) {
	if p.sbHead != len(p.sbAddr) {
		return 0, report, false // store dispatch progresses every cycle
	}
	w := &p.wheel

	// Retirement / injected-event firing.
	if p.headID < p.nextID {
		s := p.headID & p.robMask
		if p.robFlags[s]&rfDone != 0 {
			doneAt := p.robDoneAt[s]
			t := doneAt
			if p.eventStall > t {
				t = p.eventStall
			}
			if t <= now {
				return 0, report, false // head retires (or fires an event) now
			}
			w.Schedule(srcRetire, t)
			if p.robFlags[s]&(rfMiss|rfL1) != 0 {
				report = IdleReport{
					Miss:      p.robFlags[s]&rfMiss != 0,
					L1:        p.robFlags[s]&rfL1 != 0,
					Seq:       p.robUop[s].Seq,
					ResolveAt: doneAt,
					From:      now,
					Until:     doneAt,
				}
				if p.eventStall > report.From {
					report.From = p.eventStall
				}
			}
		} else {
			// Head not executed yet: it reaches retirement only after an
			// issue event, which the issue source bounds.
			w.Cancel(srcRetire)
		}
	} else {
		w.Cancel(srcRetire)
	}

	// Issue: the cached wake bound is authoritative when set (see
	// IdleScan); unset or stale means "not provably idle".
	if p.rsCount > 0 {
		t := p.issueWakeAt
		if t <= now {
			return 0, report, false
		}
		w.Schedule(srcIssue, t)
	} else {
		w.Cancel(srcIssue)
	}

	// Rename.
	if p.fqCount > 0 && !p.renameBlocked(p.fqUop[p.fqHead].Kind) {
		t := p.fqReadyAt[p.fqHead]
		if t <= now {
			return 0, report, false
		}
		w.Schedule(srcRename, t)
	} else {
		// Blocked heads unblock only via retire/issue events already on
		// the wheel.
		w.Cancel(srcRename)
	}

	// Fetch.
	if p.stream != nil && !p.brBlocked && p.fqCount < len(p.fqUop) {
		if p.fetchStall <= now {
			return 0, report, false
		}
		w.Schedule(srcFetch, p.fetchStall)
	} else {
		w.Cancel(srcFetch)
	}

	at, _, ok := w.Min()
	if !ok || at <= now+1 {
		return 0, report, false // nothing worth skipping (or no known event)
	}
	if report.Until > at {
		report.Until = at
	}
	return at, report, true
}
