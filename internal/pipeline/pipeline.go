package pipeline

import (
	"fmt"
	"math/bits"

	"soemt/internal/arena"
	"soemt/internal/branch"
	"soemt/internal/isa"
	"soemt/internal/mem"
	"soemt/internal/workload"
)

// The core's per-entry state lives in struct-of-arrays layout: the hot
// loops (retire, issue candidate scan, wake-bound computation) each
// touch one or two fields of many entries, so parallel arrays keep
// those scans inside a few cache lines instead of striding over full
// structs. ROB per-entry booleans are packed into one flags byte.
const (
	rfDone   uint8 = 1 << iota // result timing known (doneAt valid)
	rfIssued                   // left the reservation station
	rfMiss                     // execution involved an unresolved L2/walk miss
	rfL1                       // L1 miss that hit in L2 (§6 extension)
	rfPred                     // fetch-time predicted direction (branches)
)

// RS per-entry operand-presence bits (rsHas).
const (
	rsHas1 uint8 = 1 << iota
	rsHas2
)

// InjectedStall is a LIT-style external event: when the architectural
// instruction counter reaches AtInstr, retirement stalls for
// StallCycles (interrupt/IO/DMA handling time).
type InjectedStall struct {
	AtInstr     uint64
	StallCycles uint64
}

// Metrics counts pipeline events since construction (or ResetMetrics).
type Metrics struct {
	Fetched      uint64
	Retired      uint64
	Squashed     uint64
	MissFlagged  uint64 // micro-ops flagged with an L2/walk miss at execute
	DemandMisses uint64 // non-coalesced flagged misses (first of each overlapped group)
	FwdLoads     uint64 // loads satisfied by store-buffer forwarding
	RenameStalls uint64 // cycles rename was blocked by a full backend

	Cycles       uint64 // cycles simulated
	ROBOccupancy uint64 // sum of per-cycle ROB occupancy (avg = /Cycles)
	RSOccupancy  uint64 // sum of per-cycle RS occupancy
}

// Each visits every metric as a (stable name, value) pair, in
// declaration order. It is the bridge into the observability layer's
// metrics registry (internal/obs) without making the pipeline depend
// on it: sim publishes these under a "pipe." prefix at the end of each
// run.
func (m Metrics) Each(fn func(name string, v uint64)) {
	fn("fetched", m.Fetched)
	fn("retired", m.Retired)
	fn("squashed", m.Squashed)
	fn("miss_flagged", m.MissFlagged)
	fn("demand_misses", m.DemandMisses)
	fn("fwd_loads", m.FwdLoads)
	fn("rename_stalls", m.RenameStalls)
	fn("cycles", m.Cycles)
	fn("rob_occupancy", m.ROBOccupancy)
	fn("rs_occupancy", m.RSOccupancy)
}

// AvgROBOccupancy returns mean in-flight ROB entries per cycle.
func (m Metrics) AvgROBOccupancy() float64 {
	if m.Cycles == 0 {
		return 0
	}
	return float64(m.ROBOccupancy) / float64(m.Cycles)
}

// CycleResult reports what one cycle produced, for the SOE controller.
type CycleResult struct {
	Retired int // micro-ops retired this cycle

	// HeadMissPending is the paper's switch trigger: the next-to-retire
	// micro-op is flagged as handling a miss that has not resolved.
	HeadMissPending bool
	HeadMissSeq     uint64 // architectural seq of the pending micro-op
	HeadResolveAt   uint64 // cycle at which its miss resolves

	// HeadL1Pending reports an unresolved L1 miss (L2 hit) at the
	// head — the §6 extension's optional switch trigger.
	HeadL1Pending bool

	PauseRetired bool // a PAUSE hint retired this cycle (§6 extension)
}

type renameEntry struct {
	id    uint64
	valid bool
}

// Packed hot-path words. Both the wake heap and the issue-selection
// keys pack their fields into one uint64 so heap sifts and selection
// scans move single words with no pointer-chased side lookups:
//
//	wake event:    at<<16 | slot
//	selection key: seq<<24 | ports<<16 | slot
//
// Slots fit 16 bits (RSSize is validated ≤ 64 k) and the seq/at high
// fields keep full ordering for any realistic run length (2^40+
// renames / 2^48 cycles). Key comparison orders by seq first; the low
// bits never matter because seqs are unique.
const (
	wakeSlotBits = 16
	keySlotBits  = 16
	keyPortShift = keySlotBits
	keySeqShift  = keySlotBits + 8
)

// Pipeline is the out-of-order core. It executes one thread at a time
// (SOE); the controller switches threads with Squash + SetStream.
type Pipeline struct {
	cfg  Config
	hier *mem.Hierarchy
	bu   *branch.Unit

	// Thread context.
	tid    int
	stream *workload.Stream

	// ROB ring buffer, struct-of-arrays. The backing arrays are sized
	// to the next power of two above ROBSize so the per-lookup ring
	// index is a mask, not a division; capacity checks still use
	// cfg.ROBSize, and live ids always span < ROBSize entries, so the
	// wider ring never aliases.
	robUop    []isa.Uop
	robDoneAt []uint64
	robFlags  []uint8
	robMask   uint64
	headID    uint64
	nextID    uint64

	// Reservation stations, struct-of-arrays. rsValid is a bitmask
	// (64 slots per word): scans iterate set bits only, and the rename
	// free-slot search is a find-first-zero instead of a slot walk.
	// rsKey packs each entry's age and port mask into one selection key
	// (seq<<24 | ports<<16 | slot) so the issue stage's oldest-first
	// scan compares single words.
	rsValid []uint64
	rsRob   []uint64
	rsSrc1  []uint64
	rsSrc2  []uint64
	rsKey   []uint64
	rsHas   []uint8
	rsCount int
	lbCount int

	// Dataflow wakeup: the issue stage is event-driven, not scan-driven.
	// rsReady marks entries whose operands are known ready (every
	// producer's completion time known and reached) — the candidate scan
	// iterates only these. An entry with unready operands is either
	//
	//   timed   — every producer has executed, so its wake time
	//             (max producer doneAt) is known: it sits in wakeHeap
	//             and is popped into rsReady when its time arrives; or
	//   waiting — rsWaitCnt producers have not executed yet: the entry
	//             is linked into each such producer's waiter list
	//             (robWaiters, threaded through rsNext1/rsNext2), and
	//             the producer's execute() resolves it toward timed.
	//
	// The transition times reproduce the producerDone predicate exactly,
	// so issue order and timing are bit-identical to a full per-cycle
	// scan (pinned by TestIssueWakeCacheTransparent and the §9 matrix).
	rsReady    []uint64
	rsWaitCnt  []uint8
	rsWakeAt   []uint64
	rsNext1    []int32
	rsNext2    []int32
	robWaiters []int32  // per ROB slot: head of waiter list (encoded slot<<1|src), -1 empty
	wakeHeap   []uint64 // min-heap of packed at<<16|slot wake events

	// Register rename: logical register -> producing ROB id.
	renameMap [isa.NumRegs]renameEntry

	// Front end (struct-of-arrays ring).
	fqUop        []isa.Uop
	fqReadyAt    []uint64
	fqPred       []bool
	fqHead       int
	fqCount      int
	fetchStall   uint64 // no fetch before this cycle
	brBlocked    bool   // fetch blocked on an unresolved mispredict
	brBlockSeq   uint64 // seq of the blocking branch
	rsSeqCounter uint64

	// Execution ports.
	portBusy [isa.NumPorts]uint64

	// issueWakeAt caches the earliest cycle any waiting reservation
	// station could possibly issue, so the oldest-first selection scan
	// is skipped while provably fruitless. 0 means unknown (must scan).
	// Set by every scan; maintained (min-updated) across rename inserts
	// and cleared on squash. Retirement never needs to clear it: a
	// producer must already satisfy doneAt <= now to retire, so
	// retiring cannot make a consumer ready earlier than its cached
	// wake time.
	issueWakeAt uint64

	// issueCands is per-cycle scratch for the issue stage's single-pass
	// candidate collection (packed selection keys; picked entries are
	// overwritten with ^0, which compares older-than-nothing).
	issueCands []uint64

	// Store buffer (survives squash), struct-of-arrays. Live entries
	// are indices [sbHead:]; dispatch advances sbHead in O(1) and the
	// dead prefix is compacted away periodically, so store-heavy
	// workloads do not pay a per-dispatch O(n) drain.
	sbAddr []uint64
	sbTid  []int32
	sbHead int

	// Architectural position: seq of the next micro-op to retire.
	nextArchSeq uint64

	// Injected external events (sorted by AtInstr) and cursor.
	events     []InjectedStall
	eventIdx   int
	eventStall uint64 // retirement stalled until this cycle

	Metrics Metrics
}

// NewIn builds a pipeline whose backing arrays are carved from a (nil =
// plain heap allocation). With a recycled arena the construction does
// no steady-state allocations beyond the Pipeline header itself.
func NewIn(a *arena.Arena, cfg Config, hier *mem.Hierarchy, bu *branch.Unit) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	robLen := 1
	for robLen < cfg.ROBSize {
		robLen <<= 1
	}
	p := &Pipeline{
		cfg:        cfg,
		hier:       hier,
		bu:         bu,
		robUop:     arena.Slice[isa.Uop](a, robLen),
		robDoneAt:  arena.Slice[uint64](a, robLen),
		robFlags:   arena.Slice[uint8](a, robLen),
		robMask:    uint64(robLen - 1),
		rsValid:    arena.Slice[uint64](a, (cfg.RSSize+63)/64),
		rsRob:      arena.Slice[uint64](a, cfg.RSSize),
		rsSrc1:     arena.Slice[uint64](a, cfg.RSSize),
		rsSrc2:     arena.Slice[uint64](a, cfg.RSSize),
		rsKey:      arena.Slice[uint64](a, cfg.RSSize),
		rsHas:      arena.Slice[uint8](a, cfg.RSSize),
		rsReady:    arena.Slice[uint64](a, (cfg.RSSize+63)/64),
		rsWaitCnt:  arena.Slice[uint8](a, cfg.RSSize),
		rsWakeAt:   arena.Slice[uint64](a, cfg.RSSize),
		rsNext1:    arena.Slice[int32](a, cfg.RSSize),
		rsNext2:    arena.Slice[int32](a, cfg.RSSize),
		robWaiters: arena.Slice[int32](a, robLen),
		fqUop:      arena.Slice[isa.Uop](a, cfg.FetchQSize),
		fqReadyAt:  arena.Slice[uint64](a, cfg.FetchQSize),
		fqPred:     arena.Slice[bool](a, cfg.FetchQSize),
	}
	for i := range p.robWaiters {
		p.robWaiters[i] = -1
	}
	p.issueCands = arena.Slice[uint64](a, cfg.RSSize)[:0]
	p.wakeHeap = arena.Slice[uint64](a, cfg.RSSize)[:0]
	return p, nil
}

// Hierarchy returns the attached memory hierarchy.
func (p *Pipeline) Hierarchy() *mem.Hierarchy { return p.hier }

// SetEvents installs the injected external-event schedule for the
// current thread, skipping events before the current architectural
// position. Events must be sorted by AtInstr.
func (p *Pipeline) SetEvents(events []InjectedStall) {
	idx := 0
	for idx < len(events) && events[idx].AtInstr < p.nextArchSeq {
		idx++
	}
	p.SetEventsFrom(events, idx)
}

// SetEventsFrom installs an event schedule with an explicit cursor.
// The SOE controller uses this to persist each thread's fired-event
// position across switches (an event applies its stall once; the
// remainder of a stall interrupted by a switch is dropped).
func (p *Pipeline) SetEventsFrom(events []InjectedStall, idx int) {
	p.events = events
	p.eventIdx = idx
	p.eventStall = 0
}

// EventIndex returns the current event cursor (events before it have
// fired).
func (p *Pipeline) EventIndex() int { return p.eventIdx }

// SetStream installs a thread context. startAt is the earliest cycle
// the front end may fetch (the controller passes switch-in time after
// the drain). The stream must already be positioned at the thread's
// resume point.
func (p *Pipeline) SetStream(tid int, s *workload.Stream, startAt uint64) {
	p.tid = tid
	p.stream = s
	p.nextArchSeq = s.Pos()
	p.fetchStall = startAt
	p.brBlocked = false
	p.events = nil
	p.eventIdx = 0
	p.eventStall = 0
}

// Squash drains all in-flight state (thread switch). It returns the
// architectural sequence number at which the thread must resume; the
// controller seeks the thread's stream there before switching back in.
// The store buffer is retained (its entries are architecturally
// retired).
//
// Per-slot ROB/RS payloads are NOT cleared: a slot's contents are only
// ever read while it is live (rsValid bit set, or id in [headID,
// nextID)), and allocation rewrites every field it later reads.
func (p *Pipeline) Squash() uint64 {
	p.Metrics.Squashed += p.nextID - p.headID + uint64(p.fqCount)
	p.headID = 0
	p.nextID = 0
	for i := range p.rsValid {
		p.rsValid[i] = 0
	}
	for i := range p.rsReady {
		p.rsReady[i] = 0
	}
	for i := range p.robWaiters {
		p.robWaiters[i] = -1
	}
	p.wakeHeap = p.wakeHeap[:0]
	p.rsCount = 0
	p.issueWakeAt = 0
	p.lbCount = 0
	p.fqHead = 0
	p.fqCount = 0
	p.brBlocked = false
	for i := range p.renameMap {
		p.renameMap[i].valid = false
	}
	for i := range p.portBusy {
		p.portBusy[i] = 0
	}
	return p.nextArchSeq
}

// CopyFrom overwrites p's whole state with src's: every in-flight
// micro-op, the reservation stations and wake heap, the fetch queue,
// port and store-buffer state, and the metrics. Both pipelines must
// share a Config. p keeps its own memory hierarchy and branch unit
// (callers copy those layers themselves) and takes stream and events
// as the running thread's context in place of src's; stream must
// already be positioned like src's.
func (p *Pipeline) CopyFrom(src *Pipeline, stream *workload.Stream, events []InjectedStall) {
	p.tid, p.stream = src.tid, stream
	copy(p.robUop, src.robUop)
	copy(p.robDoneAt, src.robDoneAt)
	copy(p.robFlags, src.robFlags)
	p.headID, p.nextID = src.headID, src.nextID

	copy(p.rsValid, src.rsValid)
	copy(p.rsRob, src.rsRob)
	copy(p.rsSrc1, src.rsSrc1)
	copy(p.rsSrc2, src.rsSrc2)
	copy(p.rsKey, src.rsKey)
	copy(p.rsHas, src.rsHas)
	p.rsCount, p.lbCount = src.rsCount, src.lbCount
	copy(p.rsReady, src.rsReady)
	copy(p.rsWaitCnt, src.rsWaitCnt)
	copy(p.rsWakeAt, src.rsWakeAt)
	copy(p.rsNext1, src.rsNext1)
	copy(p.rsNext2, src.rsNext2)
	copy(p.robWaiters, src.robWaiters)
	p.wakeHeap = append(p.wakeHeap[:0], src.wakeHeap...)
	p.renameMap = src.renameMap

	copy(p.fqUop, src.fqUop)
	copy(p.fqReadyAt, src.fqReadyAt)
	copy(p.fqPred, src.fqPred)
	p.fqHead, p.fqCount = src.fqHead, src.fqCount
	p.fetchStall, p.brBlocked, p.brBlockSeq = src.fetchStall, src.brBlocked, src.brBlockSeq
	p.rsSeqCounter = src.rsSeqCounter

	p.portBusy = src.portBusy
	p.issueWakeAt = src.issueWakeAt
	p.issueCands = p.issueCands[:0]

	p.sbAddr = append(p.sbAddr[:0], src.sbAddr...)
	p.sbTid = append(p.sbTid[:0], src.sbTid...)
	p.sbHead = src.sbHead

	p.nextArchSeq = src.nextArchSeq
	p.events, p.eventIdx, p.eventStall = events, src.eventIdx, src.eventStall
	p.Metrics = src.Metrics
}

// ROBOccupancy returns the number of in-flight ROB entries.
func (p *Pipeline) ROBOccupancy() int { return int(p.nextID - p.headID) }

// StoreBufLen returns the store-buffer occupancy.
func (p *Pipeline) StoreBufLen() int { return len(p.sbAddr) - p.sbHead }

// ResetMetrics clears the metric counters.
func (p *Pipeline) ResetMetrics() { p.Metrics = Metrics{} }

// producerDone reports whether the producer with ROB id has produced
// its result by cycle `now` (retired producers count as done). No
// program calls it: it is the full-scan reference predicate that
// TestIssueWakeCacheTransparent checks the wake cache against.
func (p *Pipeline) producerDone(id uint64, now uint64) bool {
	if id < p.headID {
		return true // retired
	}
	s := id & p.robMask
	return p.robFlags[s]&rfDone != 0 && p.robDoneAt[s] <= now
}

// Cycle advances the machine by one cycle at global time `now`. Calls
// must use strictly increasing `now` values.
func (p *Pipeline) Cycle(now uint64) CycleResult {
	var res CycleResult
	p.Metrics.Cycles++
	p.Metrics.ROBOccupancy += p.nextID - p.headID
	p.Metrics.RSOccupancy += uint64(p.rsCount)
	p.retire(now, &res)
	p.dispatchStores(now)
	p.issue(now)
	p.rename(now)
	p.fetch(now)
	return res
}

// retire retires completed micro-ops in order, detecting the SOE
// switch trigger and applying injected event stalls.
func (p *Pipeline) retire(now uint64, res *CycleResult) {
	if now < p.eventStall {
		return
	}
	for retired := 0; retired < p.cfg.RetireWidth && p.headID < p.nextID; retired++ {
		s := p.headID & p.robMask
		flags := p.robFlags[s]
		doneAt := p.robDoneAt[s]
		u := &p.robUop[s]
		if flags&rfDone == 0 || doneAt > now {
			if flags&rfMiss != 0 && doneAt > now {
				res.HeadMissPending = true
				res.HeadMissSeq = u.Seq
				res.HeadResolveAt = doneAt
			} else if flags&rfL1 != 0 && doneAt > now {
				res.HeadL1Pending = true
				res.HeadMissSeq = u.Seq
				res.HeadResolveAt = doneAt
			}
			return
		}
		// Injected external events fire when their instruction reaches
		// retirement.
		if p.eventIdx < len(p.events) && u.Seq >= p.events[p.eventIdx].AtInstr {
			p.eventStall = now + p.events[p.eventIdx].StallCycles
			p.eventIdx++
			return
		}
		if u.Kind == isa.Store {
			if p.StoreBufLen() >= p.cfg.StoreBufSize {
				return // store buffer full: retirement blocks
			}
			p.sbAddr = append(p.sbAddr, u.Addr)
			p.sbTid = append(p.sbTid, int32(p.tid))
		}
		if u.Kind == isa.Load {
			p.lbCount--
		}
		if u.Kind == isa.Pause {
			res.PauseRetired = true
		}
		// Architectural register release.
		if u.Dst.Valid() {
			rm := &p.renameMap[u.Dst]
			if rm.valid && rm.id == p.headID {
				rm.valid = false
			}
		}
		p.headID++
		p.nextArchSeq = u.Seq + 1
		p.Metrics.Retired++
		res.Retired++
	}
}

// dispatchStores sends one retired store per cycle to the data cache.
func (p *Pipeline) dispatchStores(now uint64) {
	if p.sbHead == len(p.sbAddr) {
		return
	}
	p.hier.AccessData(now, p.sbAddr[p.sbHead], true)
	p.sbHead++
	// Reclaim the dead prefix: free immediately when drained, compact
	// once the prefix dominates the backing array. Amortized O(1).
	if p.sbHead == len(p.sbAddr) {
		p.sbAddr = p.sbAddr[:0]
		p.sbTid = p.sbTid[:0]
		p.sbHead = 0
	} else if p.sbHead >= 64 && p.sbHead*2 >= len(p.sbAddr) {
		n := copy(p.sbAddr, p.sbAddr[p.sbHead:])
		copy(p.sbTid, p.sbTid[p.sbHead:])
		p.sbAddr = p.sbAddr[:n]
		p.sbTid = p.sbTid[:n]
		p.sbHead = 0
	}
}

// portFreeMask returns the set of ports free at cycle now as a bitmask.
func (p *Pipeline) portFreeMask(now uint64) uint8 {
	var free uint8
	for i := range p.portBusy {
		if p.portBusy[i] <= now {
			free |= 1 << uint(i)
		}
	}
	return free
}

// issue selects ready reservation-station entries, oldest first, and
// begins execution on free ports. Readiness is event-driven: timed
// entries surface from the wake heap when their cycle arrives, so the
// per-cycle cost scales with the ready set, not the RS occupancy.
func (p *Pipeline) issue(now uint64) {
	if p.rsCount == 0 {
		return
	}
	if p.issueWakeAt > now {
		// No waiting entry can have become ready: producers complete on
		// fixed doneAt schedules and ports free on fixed busy-until
		// schedules, both accounted for in the cached wake time. The
		// wake heap keeps its due entries; they are popped when the
		// bound (which is <= the heap minimum) is reached.
		return
	}
	// Promote timed entries whose wake cycle has arrived. The wake time
	// is exactly the cycle every operand producer satisfies
	// producerDone, so this reproduces a full readiness scan.
	for len(p.wakeHeap) > 0 && p.wakeHeap[0]>>wakeSlotBits <= now {
		slot := p.wakeHeap[0] & (1<<wakeSlotBits - 1)
		p.heapPop()
		p.rsReady[slot>>6] |= 1 << (slot & 63)
	}
	// Candidates: ready entries whose port group has a free port now.
	// Port availability cannot improve within the cycle (busy-until
	// times only grow), so the collected set stays valid across picks;
	// only the per-pick free mask must be refreshed.
	free := p.portFreeMask(now)
	cands := p.issueCands[:0]
	for w, word := range p.rsReady {
		base := w * 64
		for word != 0 {
			i := base + bits.TrailingZeros64(word)
			word &= word - 1
			key := p.rsKey[i]
			if uint8(key>>keyPortShift)&free == 0 {
				continue
			}
			cands = append(cands, key)
		}
	}
	if len(cands) == 0 {
		// Nothing can issue now: cache the earliest future issue bound
		// so the cycles until then skip this stage entirely.
		p.issueWakeAt = p.issueBound()
		return
	}
	// Oldest-first picks, exactly as a per-slot selection scan would
	// make them: the oldest candidate with a free port goes first; a
	// port-blocked older candidate yields to a younger one whose port
	// is free. RS is small (tens of entries), so repeated selection
	// over the candidate list is fine — the keys are packed words, so
	// each rescan is a branchy min over one cache line or two. Picked
	// candidates are overwritten with ^0 (older-than-nothing) in place;
	// the free mask is maintained by clearing the claimed port's bit
	// (the claim always busies it past now).
	remaining := len(cands)
	for remaining > 0 && free != 0 {
		best := -1
		bestKey := ^uint64(0)
		for ci, key := range cands {
			if key >= bestKey {
				continue
			}
			if uint8(key>>keyPortShift)&free == 0 {
				continue
			}
			best, bestKey = ci, key
		}
		if best == -1 {
			break
		}
		slot := bestKey & (1<<keySlotBits - 1)
		cands[best] = ^uint64(0)
		remaining--
		port := p.execute(now, p.rsRob[slot])
		free &^= 1 << uint(port)
		p.rsValid[slot>>6] &^= 1 << (slot & 63)
		p.rsReady[slot>>6] &^= 1 << (slot & 63)
		p.rsCount--
		if p.rsCount == 0 {
			return
		}
	}
	// Productive cycle with leftovers: leave the wake cache where it is
	// (<= now, since we got past the bail above). The next cycle's scan
	// is cheap, and if it proves unproductive it installs a fresh bound
	// computed from the post-issue port schedule then.
}

// issueBound returns the earliest cycle at which any waiting
// reservation-station entry could issue: the earliest timed wake
// (heap minimum) or, for ready-but-port-blocked entries, the earliest
// cycle one of their ports frees. Waiting entries (producers not yet
// executed) have no bound of their own, but they cannot overtake the
// returned bound either — their producer chain bottoms out in an entry
// that IS covered (timed or ready), and a dependent can only issue
// strictly after its producer. Returns 0 (scan every cycle) in the
// defensive case where no entry has a computable bound.
func (p *Pipeline) issueBound() uint64 {
	var bound uint64
	found := false
	if len(p.wakeHeap) > 0 {
		bound, found = p.wakeHeap[0]>>wakeSlotBits, true
	}
	for w, word := range p.rsReady {
		base := w * 64
		for word != 0 {
			i := base + bits.TrailingZeros64(word)
			word &= word - 1
			free := ^uint64(0)
			for m := uint8(p.rsKey[i] >> keyPortShift); m != 0; m &= m - 1 {
				if b := p.portBusy[bits.TrailingZeros8(m)]; b < free {
					free = b
				}
			}
			// A bound of 0 is a real value, not the unset sentinel —
			// track foundness separately.
			if !found || free < bound {
				bound, found = free, true
			}
		}
	}
	return bound
}

// heapPush inserts a timed wake (packed at<<16|slot) into the
// min-heap. Packed comparison orders by wake time; the slot tiebreak
// is invisible because all due entries are drained together before
// any selection happens.
func (p *Pipeline) heapPush(at uint64, slot uint64) {
	h := append(p.wakeHeap, at<<wakeSlotBits|slot)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	p.wakeHeap = h
}

// heapPop removes the minimum timed wake.
func (p *Pipeline) heapPop() {
	h := p.wakeHeap
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && h[l] < h[min] {
			min = l
		}
		if r < len(h) && h[r] < h[min] {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	p.wakeHeap = h
}

// producerReadyAt returns the cycle from which producerDone(id, t)
// holds, or known=false if the producer has not issued yet.
func (p *Pipeline) producerReadyAt(id uint64) (at uint64, known bool) {
	if id < p.headID {
		return 0, true // retired
	}
	s := id & p.robMask
	if p.robFlags[s]&rfDone == 0 {
		return 0, false
	}
	return p.robDoneAt[s], true
}

// claimPort occupies the first free port of kind's group until
// `until` and returns its number (until is always > now, so the port
// is busy for the rest of this cycle).
func (p *Pipeline) claimPort(kind isa.Kind, now, until uint64) int {
	for m := isa.PortMask[kind]; m != 0; m &= m - 1 {
		port := bits.TrailingZeros8(m)
		if p.portBusy[port] <= now {
			p.portBusy[port] = until
			return port
		}
	}
	panic("pipeline: claimPort called with no free port")
}

// execute starts execution of the ROB entry with the given id at
// cycle now, returning the issue port it claimed.
func (p *Pipeline) execute(now uint64, id uint64) (port int) {
	s := id & p.robMask
	u := &p.robUop[s]
	flags := p.robFlags[s] | rfIssued
	kind := u.Kind
	switch kind {
	case isa.Load:
		// Forwarding from the store buffer (same thread, same address).
		if p.forwardable(u.Addr) {
			p.robDoneAt[s] = now + 1
			p.Metrics.FwdLoads++
		} else {
			walk := p.hier.TranslateData(now, u.Addr)
			acc := p.hier.AccessData(walk.DoneAt, u.Addr, false)
			p.robDoneAt[s] = acc.DoneAt
			if acc.L2Miss || walk.L2Miss {
				flags |= rfMiss
				p.Metrics.MissFlagged++
				if (acc.L2Miss && !acc.Coalesced) || walk.L2Miss {
					p.Metrics.DemandMisses++
				}
			} else if acc.L1Miss {
				flags |= rfL1
			}
		}
		port = p.claimPort(kind, now, now+1)
	case isa.Store:
		// Address generation + translation; data is written at
		// post-retire dispatch.
		walk := p.hier.TranslateData(now, u.Addr)
		doneAt := walk.DoneAt
		if doneAt <= now {
			doneAt = now + 1
		}
		p.robDoneAt[s] = doneAt
		if walk.L2Miss {
			flags |= rfMiss
			p.Metrics.MissFlagged++
			p.Metrics.DemandMisses++
		}
		port = p.claimPort(kind, now, now+1)
	case isa.Branch:
		doneAt := now + uint64(isa.Latency[kind])
		p.robDoneAt[s] = doneAt
		p.bu.Resolve(u.PC, flags&rfPred != 0, u.Taken, u.Target)
		if p.brBlocked && p.brBlockSeq == u.Seq {
			// Mispredict resolved: redirect the front end.
			p.brBlocked = false
			resume := doneAt + uint64(p.cfg.RedirectPenalty)
			if resume > p.fetchStall {
				p.fetchStall = resume
			}
		}
		port = p.claimPort(kind, now, now+1)
	default:
		lat := uint64(isa.Latency[kind])
		p.robDoneAt[s] = now + lat
		until := now + 1
		if !isa.Pipelined(kind) {
			until = now + lat
		}
		port = p.claimPort(kind, now, until)
	}
	p.robFlags[s] = flags | rfDone // result timing carried by doneAt

	// Wake dependents: the completion time is now known, so every
	// consumer waiting on this producer moves one step toward timed.
	// doneAt is always > now (execution takes at least a cycle), so a
	// fully resolved consumer enters the wake heap, never rsReady
	// directly.
	if node := p.robWaiters[s]; node >= 0 {
		p.robWaiters[s] = -1
		doneAt := p.robDoneAt[s]
		for node >= 0 {
			slot := node >> 1
			if node&1 == 0 {
				node = p.rsNext1[slot]
			} else {
				node = p.rsNext2[slot]
			}
			if doneAt > p.rsWakeAt[slot] {
				p.rsWakeAt[slot] = doneAt
			}
			if p.rsWaitCnt[slot]--; p.rsWaitCnt[slot] == 0 {
				p.heapPush(p.rsWakeAt[slot], uint64(slot))
			}
		}
	}
	return port
}

// forwardable reports whether a load can forward from the store
// buffer.
func (p *Pipeline) forwardable(addr uint64) bool {
	tid := int32(p.tid)
	for i := p.sbHead; i < len(p.sbAddr); i++ {
		if p.sbTid[i] == tid && p.sbAddr[i] == addr {
			return true
		}
	}
	return false
}

// needsRS reports whether kind occupies a reservation station (NOP and
// PAUSE complete at rename).
func needsRS(kind isa.Kind) bool { return kind != isa.Nop && kind != isa.Pause }

// renameBlocked reports whether a micro-op of the given kind cannot
// rename because a backend resource (ROB, RS, load buffer) is full.
// Each cycle this holds for the fetch-queue head with its group decoded
// (readyAt reached) costs one RenameStalls tick.
func (p *Pipeline) renameBlocked(kind isa.Kind) bool {
	if int(p.nextID-p.headID) >= p.cfg.ROBSize {
		return true
	}
	if needsRS(kind) && p.rsCount >= p.cfg.RSSize {
		return true
	}
	return kind == isa.Load && p.lbCount >= p.cfg.LoadBufSize
}

// freeRSSlot returns the lowest-index free reservation-station slot.
// Callers ensure occupancy < RSSize, so a free slot exists.
func (p *Pipeline) freeRSSlot() int32 {
	for w, word := range p.rsValid {
		if inv := ^word; inv != 0 {
			i := int32(w*64 + bits.TrailingZeros64(inv))
			if int(i) < p.cfg.RSSize {
				return i
			}
		}
	}
	panic("pipeline: no free reservation station")
}

// rename moves micro-ops from the fetch queue into the ROB/RS.
func (p *Pipeline) rename(now uint64) {
	for n := 0; n < p.cfg.RenameWidth; n++ {
		if p.fqCount == 0 {
			return
		}
		h := p.fqHead
		if p.fqReadyAt[h] > now {
			return
		}
		u := &p.fqUop[h]
		if p.renameBlocked(u.Kind) {
			p.Metrics.RenameStalls++
			return
		}
		needRS := needsRS(u.Kind)

		id := p.nextID
		p.nextID++
		s := id & p.robMask
		p.robUop[s] = *u
		var flags uint8
		if p.fqPred[h] {
			flags = rfPred
		}

		if needRS {
			slot := p.freeRSSlot()
			p.rsValid[slot>>6] |= 1 << uint(slot&63)
			p.rsRob[slot] = id
			p.rsKey[slot] = p.rsSeqCounter<<keySeqShift |
				uint64(isa.PortMask[u.Kind])<<keyPortShift | uint64(slot)
			p.rsSeqCounter++
			var has uint8
			waitCnt := uint8(0)
			var wakeAt uint64
			if u.Src1.Valid() {
				if rm := &p.renameMap[u.Src1]; rm.valid {
					p.rsSrc1[slot] = rm.id
					has |= rsHas1
					if t, known := p.producerReadyAt(rm.id); known {
						if t > wakeAt {
							wakeAt = t
						}
					} else {
						ps := rm.id & p.robMask
						p.rsNext1[slot] = p.robWaiters[ps]
						p.robWaiters[ps] = slot << 1
						waitCnt++
					}
				}
			}
			if u.Src2.Valid() {
				if rm := &p.renameMap[u.Src2]; rm.valid {
					p.rsSrc2[slot] = rm.id
					has |= rsHas2
					if t, known := p.producerReadyAt(rm.id); known {
						if t > wakeAt {
							wakeAt = t
						}
					} else {
						ps := rm.id & p.robMask
						p.rsNext2[slot] = p.robWaiters[ps]
						p.robWaiters[ps] = slot<<1 | 1
						waitCnt++
					}
				}
			}
			p.rsHas[slot] = has
			p.rsWaitCnt[slot] = waitCnt
			p.rsWakeAt[slot] = wakeAt
			if waitCnt == 0 {
				if wakeAt <= now {
					p.rsReady[slot>>6] |= 1 << uint(slot&63)
				} else {
					p.heapPush(wakeAt, uint64(slot))
				}
			}
			p.rsCount++
			if p.issueWakeAt != 0 && waitCnt == 0 && wakeAt < p.issueWakeAt {
				// The cached wake bound survives the insert: a resolved
				// entry joins the min (conservatively ignoring its port
				// schedule; a bound of 0 falls back to scan-every-cycle
				// mode). A still-waiting entry cannot undercut the bound —
				// its unexecuted producer is itself covered by the cache,
				// and a dependent only becomes ready at its producer's
				// doneAt, strictly after the producer issues.
				p.issueWakeAt = wakeAt
			}
			if u.Kind == isa.Load {
				p.lbCount++
			}
		} else {
			// NOP/PAUSE complete at rename.
			flags |= rfDone
			p.robDoneAt[s] = now + 1
		}
		p.robFlags[s] = flags

		if u.Dst.Valid() {
			p.renameMap[u.Dst] = renameEntry{id: id, valid: true}
		}

		p.fqHead++
		if p.fqHead == len(p.fqUop) {
			p.fqHead = 0
		}
		p.fqCount--
	}
}

// fetch pulls micro-ops from the workload stream through the
// instruction cache and branch prediction into the fetch queue.
func (p *Pipeline) fetch(now uint64) {
	if p.stream == nil || p.brBlocked || now < p.fetchStall {
		return
	}
	if p.fqCount >= len(p.fqUop) {
		return
	}
	// One icache+iTLB access covers this cycle's fetch group. Peek
	// memoizes the generated micro-op, so the first Next below does not
	// regenerate it.
	first := p.stream.Peek()
	walk := p.hier.TranslateFetch(now, first.PC)
	acc := p.hier.AccessFetch(walk.DoneAt, first.PC)
	groupReady := acc.DoneAt + uint64(p.cfg.DecodeCycles)
	if acc.L1Miss || walk.Walked {
		// Fetch blocks until the instruction bytes arrive.
		p.fetchStall = acc.DoneAt
	}

	for n := 0; n < p.cfg.FetchWidth && p.fqCount < len(p.fqUop); n++ {
		u := p.stream.Next()
		p.Metrics.Fetched++
		if u.Kind == isa.Branch {
			pred := p.bu.PredictDirection(u.PC)
			if pred != u.Taken {
				// Mispredict: block fetch until this branch resolves
				// (flush-younger approximation; see package comment).
				p.brBlocked = true
				p.brBlockSeq = u.Seq
				p.push(u, groupReady, pred)
				return
			}
			if pred {
				if _, hit := p.bu.BTB.Lookup(u.PC); !hit {
					// Correctly predicted taken but target unknown
					// until decode: small fetch bubble.
					p.fetchStall = now + 1 + uint64(p.cfg.BTBMissPenalty)
					p.push(u, groupReady, pred)
					return
				}
				// Redirect: taken branches end the fetch group.
				p.push(u, groupReady, pred)
				return
			}
			p.push(u, groupReady, pred)
			continue
		}
		p.push(u, groupReady, false)
	}
}

func (p *Pipeline) push(u isa.Uop, readyAt uint64, pred bool) {
	tail := p.fqHead + p.fqCount
	if tail >= len(p.fqUop) {
		tail -= len(p.fqUop)
	}
	p.fqUop[tail] = u
	p.fqReadyAt[tail] = readyAt
	p.fqPred[tail] = pred
	p.fqCount++
}

// String summarizes occupancy for debugging.
func (p *Pipeline) String() string {
	return fmt.Sprintf("pipeline{tid=%d rob=%d/%d rs=%d/%d lb=%d sb=%d fq=%d arch=%d}",
		p.tid, p.ROBOccupancy(), p.cfg.ROBSize, p.rsCount, p.cfg.RSSize,
		p.lbCount, p.StoreBufLen(), p.fqCount, p.nextArchSeq)
}
