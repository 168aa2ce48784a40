package mem

import "soemt/internal/arena"

// Bus models the pipelined front-side bus between the L2 cache and
// memory: transfers may overlap with memory access latency, but bus
// occupancy slots serialize.
type Bus struct {
	Occupancy int    // cycles each transfer holds the bus
	nextFree  uint64 // first cycle the bus is available
	Transfers uint64 // statistics
}

// Acquire grants the bus at or after now and returns the grant cycle.
func (b *Bus) Acquire(now uint64) uint64 {
	start := now
	if b.nextFree > start {
		start = b.nextFree
	}
	b.nextFree = start + uint64(b.Occupancy)
	b.Transfers++
	return start
}

// Reset clears bus state and statistics.
func (b *Bus) Reset() {
	b.nextFree = 0
	b.Transfers = 0
}

// HierarchyConfig configures the full memory hierarchy.
type HierarchyConfig struct {
	L1I  CacheConfig
	L1D  CacheConfig
	L2   CacheConfig
	ITLB TLBConfig
	DTLB TLBConfig

	BusOccupancy int // bus cycles per line transfer
	MemLatency   int // constant memory access latency (the paper's 300)
	MSHRs        int // maximum outstanding line fills

	// PrefetchDegree enables a next-line hardware prefetcher: each
	// demand L2 miss to line X schedules fills for X+1..X+degree when
	// MSHR slots are free. 0 disables (the paper's machine; the
	// prefetcher is an ablation — it interacts with SOE by removing
	// switch triggers from strided workloads).
	PrefetchDegree int
}

// HierarchyStats aggregates hierarchy-level events.
type HierarchyStats struct {
	L2MissesDemand uint64 // demand (non-coalesced) L2 misses
	Coalesced      uint64 // accesses folded into an outstanding fill
	PageWalks      uint64 // hardware page walks
	WalkL2Misses   uint64 // page walks that missed in L2
	MSHRFullStalls uint64 // accesses delayed because all MSHRs were busy
	Prefetches     uint64 // prefetch fills issued
}

// AccessResult reports the timing and classification of one access.
type AccessResult struct {
	DoneAt    uint64 // cycle the data is available
	L1Miss    bool   // missed the first-level cache
	L2Miss    bool   // suffered (or joined) an L2 miss
	Coalesced bool   // joined an outstanding fill rather than starting one
}

// pageTableBase tags synthetic page-table addresses so walks occupy
// distinct L2 lines from program data.
const pageTableBase = uint64(1) << 46

// mshr is one miss status holding register: a fill of line that
// completes at cycle ready.
type mshr struct{ line, ready uint64 }

// Hierarchy owns all memory-side structures. It is shared between SOE
// threads: per the paper, caches, TLBs and predictor state are NOT
// flushed on thread switches.
type Hierarchy struct {
	cfg  HierarchyConfig
	L1I  *Cache
	L1D  *Cache
	L2   *Cache
	ITLB *Cache
	DTLB *Cache
	Bus  Bus

	// mshrs holds the outstanding line fills in a table of cfg.MSHRs
	// slots. A completed fill stays until the next reap.
	mshrs []mshr

	Stats HierarchyStats
}

// NewHierarchyIn builds a hierarchy whose cache, TLB and MSHR arrays
// are carved from a (nil = plain heap allocation). With a recycled
// arena the construction allocates only the structure headers, so
// repeated runs (sweeps, equivalence matrices) stop churning the
// multi-megabyte tag arrays through the garbage collector. Invalid
// configuration (see HierarchyConfig.Validate) is returned as an
// error, not panicked, so bad CLI flags and sweep values surface
// cleanly.
func NewHierarchyIn(a *arena.Arena, cfg HierarchyConfig) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Validate has checked every geometry, so these cannot fail.
	l1i, _ := NewCacheIn(a, cfg.L1I)
	l1d, _ := NewCacheIn(a, cfg.L1D)
	l2, _ := NewCacheIn(a, cfg.L2)
	itlb, _ := NewTLBIn(a, cfg.ITLB)
	dtlb, _ := NewTLBIn(a, cfg.DTLB)
	return &Hierarchy{
		cfg: cfg, L1I: l1i, L1D: l1d, L2: l2, ITLB: itlb, DTLB: dtlb,
		Bus:   Bus{Occupancy: cfg.BusOccupancy},
		mshrs: arena.Slice[mshr](a, cfg.MSHRs)[:0],
	}, nil
}

// structures lists the hierarchy's caches and TLBs.
func (h *Hierarchy) structures() [5]*Cache {
	return [5]*Cache{h.L1I, h.L1D, h.L2, h.ITLB, h.DTLB}
}

// reap drops completed fills from the MSHR table.
func (h *Hierarchy) reap(now uint64) {
	live := h.mshrs[:0]
	for _, m := range h.mshrs {
		if m.ready > now {
			live = append(live, m)
		}
	}
	h.mshrs = live
}

// outstanding returns the completion cycle of the MSHR entry for line,
// completed but unreaped entries included.
func (h *Hierarchy) outstanding(line uint64) (uint64, bool) {
	for _, m := range h.mshrs {
		if m.line == line {
			return m.ready, true
		}
	}
	return 0, false
}

// fillFromMemory starts (or joins) a memory fill for the L2 line
// containing addr and returns the completion cycle plus whether the
// request coalesced into an existing fill. The table never overflows:
// a full table reaps at least its earliest fill before the insert, and
// the prefetcher checks for a free slot first.
func (h *Hierarchy) fillFromMemory(now uint64, addr uint64) (ready uint64, coalesced bool) {
	line := h.L2.LineAddr(addr)
	h.reap(now)
	if r, ok := h.outstanding(line); ok {
		h.Stats.Coalesced++
		return r, true
	}
	start := now
	if len(h.mshrs) >= h.cfg.MSHRs {
		// All MSHRs busy: the new miss waits for the earliest
		// outstanding fill to retire its register.
		h.Stats.MSHRFullStalls++
		earliest := h.mshrs[0].ready
		for _, m := range h.mshrs[1:] {
			earliest = min(earliest, m.ready)
		}
		start = max(start, earliest)
		h.reap(start)
	}
	grant := h.Bus.Acquire(start)
	ready = grant + uint64(h.cfg.MemLatency)
	h.mshrs = append(h.mshrs, mshr{line, ready})
	h.Stats.L2MissesDemand++
	// Install the line now; timing is carried by the MSHR entry.
	h.installL2(addr, false)
	h.prefetchAfter(start, line)
	return ready, false
}

// prefetchAfter issues next-line prefetches following a demand miss,
// bounded by free MSHR capacity so prefetches never delay demand
// fills' miss registers.
func (h *Hierarchy) prefetchAfter(now uint64, line uint64) {
	for i := 1; i <= h.cfg.PrefetchDegree; i++ {
		next := line + uint64(i*h.cfg.L2.LineSize)
		if len(h.mshrs) >= h.cfg.MSHRs {
			return
		}
		if _, busy := h.outstanding(next); busy || h.L2.Probe(next) {
			continue
		}
		grant := h.Bus.Acquire(now)
		h.mshrs = append(h.mshrs, mshr{next, grant + uint64(h.cfg.MemLatency)})
		h.Stats.Prefetches++
		h.installL2(next, true)
	}
}

// installL2 fills the line containing addr into L2, marked as
// prefetched or not. The hierarchy is inclusive, so the victim's L1
// copies are dropped; a dirty victim's writeback occupies a bus slot
// but does not delay the fill (posted write).
func (h *Hierarchy) installL2(addr uint64, prefetched bool) {
	if evicted, dirty, victim := h.L2.FillTagged(addr, false, prefetched); evicted {
		h.L1D.Invalidate(victim)
		h.L1I.Invalidate(victim)
		if dirty {
			h.Bus.Acquire(0)
		}
	}
}

// pendingFill reports whether the L2 line containing addr has a fill
// still outstanding after cycle `after`, and when it completes. Hits
// on such lines must wait for the data to arrive (they coalesce into
// the fill — the paper's overlapped-miss case).
func (h *Hierarchy) pendingFill(after uint64, addr uint64) (uint64, bool) {
	if r, ok := h.outstanding(h.L2.LineAddr(addr)); ok && r > after {
		return r, true
	}
	return 0, false
}

// AccessData performs a data-side access (load or store data fill).
func (h *Hierarchy) AccessData(now uint64, addr uint64, write bool) AccessResult {
	return h.access(now, h.L1D, addr, write)
}

// AccessFetch performs an instruction-side access through L1I.
func (h *Hierarchy) AccessFetch(now uint64, addr uint64) AccessResult {
	return h.access(now, h.L1I, addr, false)
}

// access models one access through l1: the l1 lookup, on a miss an L2
// lookup, on a miss a memory fill with MSHR coalescing; a miss fills
// l1. Returns timing and miss classification.
func (h *Hierarchy) access(now uint64, l1 *Cache, addr uint64, write bool) AccessResult {
	res := AccessResult{DoneAt: now + l1.latency}
	if l1.Lookup(addr, write) {
		if ready, ok := h.pendingFill(res.DoneAt, addr); ok {
			res.DoneAt = ready
			res.L1Miss, res.L2Miss, res.Coalesced = true, true, true
			h.Stats.Coalesced++
		}
		return res
	}
	res.L1Miss = true
	l2Done := res.DoneAt + uint64(h.cfg.L2.Latency) // L2 probed after L1 miss detection
	if h.L2.Lookup(addr, false) {
		res.DoneAt = l2Done
		if ready, ok := h.pendingFill(l2Done, addr); ok {
			res.DoneAt = ready
			res.L2Miss, res.Coalesced = true, true
			h.Stats.Coalesced++
		}
	} else {
		res.DoneAt, res.Coalesced = h.fillFromMemory(l2Done, addr)
		res.L2Miss = true
	}
	l1.Fill(addr, write)
	return res
}

// WalkResult reports a TLB translation.
type WalkResult struct {
	DoneAt uint64
	Walked bool // a page walk was required
	L2Miss bool // the walk itself missed in L2 (flagged in ROB per §4.1)
}

// translate performs a TLB lookup with hardware walk on miss. The walk
// reads the page-table entry through the L2 (two levels; the upper
// level is assumed cached, matching common simplifications).
func (h *Hierarchy) translate(now uint64, tlb *Cache, addr uint64) WalkResult {
	if tlb.Lookup(addr, false) {
		return WalkResult{DoneAt: now + 1}
	}
	h.Stats.PageWalks++
	pteAddr := pageTableBase + tlb.tag(addr)*8
	res := WalkResult{Walked: true}
	walkDone := now + uint64(h.cfg.L2.Latency)
	if !h.L2.Lookup(pteAddr, false) {
		ready, _ := h.fillFromMemory(walkDone, pteAddr)
		walkDone = ready
		res.L2Miss = true
		h.Stats.WalkL2Misses++
	}
	res.DoneAt = walkDone
	tlb.Fill(addr, false)
	return res
}

// TranslateData translates a data address through the DTLB.
func (h *Hierarchy) TranslateData(now uint64, addr uint64) WalkResult {
	return h.translate(now, h.DTLB, addr)
}

// TranslateFetch translates an instruction address through the ITLB.
func (h *Hierarchy) TranslateFetch(now uint64, addr uint64) WalkResult {
	return h.translate(now, h.ITLB, addr)
}

// ResetTiming clears timing state (bus occupancy and outstanding
// fills) while keeping cache/TLB contents. Used after functional
// warmup, whose synthetic timestamps would otherwise poison the
// timed run.
func (h *Hierarchy) ResetTiming() {
	h.Bus.Reset()
	h.mshrs = h.mshrs[:0]
}

// CopyFrom overwrites h's whole state with src's: cache and TLB
// contents, bus occupancy, outstanding fills and statistics. Both
// hierarchies must be built from the same configuration. It is the
// memory layer's part of copying a machine (a sibling run restoring
// another run's warmed state).
func (h *Hierarchy) CopyFrom(src *Hierarchy) {
	dst, from := h.structures(), src.structures()
	for i := range dst {
		dst[i].CopyFrom(from[i])
	}
	h.Bus = src.Bus
	h.mshrs = append(h.mshrs[:0], src.mshrs...)
	h.Stats = src.Stats
}

// ResetStats clears statistics but keeps cache/TLB contents (end of
// warmup).
func (h *Hierarchy) ResetStats() {
	for _, c := range h.structures() {
		c.ResetStats()
	}
	h.Stats = HierarchyStats{}
	h.Bus.Transfers = 0
}
