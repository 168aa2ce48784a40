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

// Latency returns the access latency relative to issue cycle `now`.
func (r AccessResult) Latency(now uint64) uint64 {
	if r.DoneAt <= now {
		return 0
	}
	return r.DoneAt - now
}

// pageTableBase tags synthetic page-table addresses so walks occupy
// distinct L2 lines from program data.
const pageTableBase = uint64(1) << 46

// Hierarchy owns all memory-side structures. It is shared between SOE
// threads: per the paper, caches, TLBs and predictor state are NOT
// flushed on thread switches.
type Hierarchy struct {
	cfg  HierarchyConfig
	L1I  *Cache
	L1D  *Cache
	L2   *Cache
	ITLB *TLB
	DTLB *TLB
	Bus  Bus

	// MSHR: line address -> cycle at which the fill completes.
	outstanding map[uint64]uint64

	Stats HierarchyStats
}

// NewHierarchy builds the hierarchy from cfg. Invalid configuration
// (see HierarchyConfig.Validate) is returned as an error, not
// panicked, so bad CLI flags and sweep values surface cleanly.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	return NewHierarchyIn(nil, cfg)
}

// NewHierarchyIn builds a hierarchy whose cache and TLB arrays are
// carved from a (nil = plain heap allocation). With a recycled arena
// the construction allocates only the structure headers and the MSHR
// map, so repeated runs (sweeps, equivalence matrices) stop churning
// the multi-megabyte tag arrays through the garbage collector.
func NewHierarchyIn(a *arena.Arena, cfg HierarchyConfig) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l1i, err := NewCacheIn(a, cfg.L1I)
	if err != nil {
		return nil, err
	}
	l1d, err := NewCacheIn(a, cfg.L1D)
	if err != nil {
		return nil, err
	}
	l2, err := NewCacheIn(a, cfg.L2)
	if err != nil {
		return nil, err
	}
	itlb, err := NewTLBIn(a, cfg.ITLB)
	if err != nil {
		return nil, err
	}
	dtlb, err := NewTLBIn(a, cfg.DTLB)
	if err != nil {
		return nil, err
	}
	h := &Hierarchy{
		cfg:         cfg,
		L1I:         l1i,
		L1D:         l1d,
		L2:          l2,
		ITLB:        itlb,
		DTLB:        dtlb,
		Bus:         Bus{Occupancy: cfg.BusOccupancy},
		outstanding: make(map[uint64]uint64),
	}
	return h, nil
}

// MustNewHierarchy builds the hierarchy from a configuration known to
// be valid (e.g. DefaultConfig), panicking otherwise. Intended for
// tests and static configurations.
func MustNewHierarchy(cfg HierarchyConfig) *Hierarchy {
	h, err := NewHierarchy(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// reap drops completed fills from the MSHR table.
func (h *Hierarchy) reap(now uint64) {
	for line, ready := range h.outstanding {
		if ready <= now {
			delete(h.outstanding, line)
		}
	}
}

// OutstandingFills returns the number of in-flight line fills at now.
func (h *Hierarchy) OutstandingFills(now uint64) int {
	h.reap(now)
	return len(h.outstanding)
}

// fillFromMemory starts (or joins) a memory fill for the L2 line
// containing addr and returns the completion cycle plus whether the
// request coalesced into an existing fill.
func (h *Hierarchy) fillFromMemory(now uint64, addr uint64) (ready uint64, coalesced bool) {
	line := h.L2.LineAddr(addr)
	h.reap(now)
	if r, ok := h.outstanding[line]; ok {
		h.Stats.Coalesced++
		return r, true
	}
	start := now
	if len(h.outstanding) >= h.cfg.MSHRs {
		// All MSHRs busy: the new miss waits for the earliest
		// outstanding fill to retire its register.
		h.Stats.MSHRFullStalls++
		earliest := uint64(0)
		first := true
		for _, r := range h.outstanding {
			if first || r < earliest {
				earliest, first = r, false
			}
		}
		if earliest > start {
			start = earliest
		}
		h.reap(start)
	}
	grant := h.Bus.Acquire(start)
	ready = grant + uint64(h.cfg.MemLatency)
	h.outstanding[line] = ready
	h.Stats.L2MissesDemand++
	// Install the line now; timing is carried by the MSHR entry.
	h.installL2(addr)
	h.prefetchAfter(start, line)
	return ready, false
}

// prefetchAfter issues next-line prefetches following a demand miss,
// bounded by free MSHR capacity so prefetches never delay demand
// fills' miss registers.
func (h *Hierarchy) prefetchAfter(now uint64, line uint64) {
	for i := 1; i <= h.cfg.PrefetchDegree; i++ {
		next := line + uint64(i*h.cfg.L2.LineSize)
		if len(h.outstanding) >= h.cfg.MSHRs {
			return
		}
		if _, busy := h.outstanding[next]; busy || h.L2.Probe(next) {
			continue
		}
		grant := h.Bus.Acquire(now)
		h.outstanding[next] = grant + uint64(h.cfg.MemLatency)
		h.Stats.Prefetches++
		if evicted, dirty, evAddr := h.L2.FillTagged(next, false, true); evicted {
			// Inclusive hierarchy: L2 evictions drop L1 copies.
			h.L1D.Invalidate(evAddr)
			h.L1I.Invalidate(evAddr)
			if dirty {
				h.Bus.Acquire(0)
			}
		}
	}
}

// installL2 fills a line into L2, sending any dirty victim to the bus.
func (h *Hierarchy) installL2(addr uint64) {
	if _, dirty, _ := h.fillWithVictim(h.L2, addr, false); dirty {
		// Dirty writeback occupies a bus slot but does not delay the
		// demand fill (posted write).
		h.Bus.Acquire(0)
	}
}

func (h *Hierarchy) fillWithVictim(c *Cache, addr uint64, dirty bool) (bool, bool, uint64) {
	evicted, evDirty, evAddr := c.Fill(addr, dirty)
	if c == h.L2 && evicted {
		// Inclusive hierarchy: L2 eviction invalidates L1 copies.
		h.L1D.Invalidate(evAddr)
		h.L1I.Invalidate(evAddr)
	}
	return evicted, evDirty, evAddr
}

// pendingFill reports whether the L2 line containing addr has a fill
// still outstanding after cycle `after`, and when it completes. Hits
// on such lines must wait for the data to arrive (they coalesce into
// the fill — the paper's overlapped-miss case).
func (h *Hierarchy) pendingFill(after uint64, addr uint64) (uint64, bool) {
	if r, ok := h.outstanding[h.L2.LineAddr(addr)]; ok && r > after {
		return r, true
	}
	return 0, false
}

// AccessData performs a data-side access (load or store data fill).
// It models: L1D lookup, on miss an L2 lookup, on miss a memory fill
// with MSHR coalescing. Returns timing and miss classification.
func (h *Hierarchy) AccessData(now uint64, addr uint64, write bool) AccessResult {
	res := AccessResult{DoneAt: now + uint64(h.cfg.L1D.Latency)}
	if h.L1D.Lookup(addr, write) {
		if ready, ok := h.pendingFill(res.DoneAt, addr); ok {
			res.DoneAt = ready
			res.L1Miss, res.L2Miss, res.Coalesced = true, true, true
			h.Stats.Coalesced++
		}
		return res
	}
	res.L1Miss = true
	l2At := res.DoneAt // L2 probed after L1 miss detection
	l2Done := l2At + uint64(h.cfg.L2.Latency)
	if h.L2.Lookup(addr, false) {
		res.DoneAt = l2Done
		if ready, ok := h.pendingFill(l2Done, addr); ok {
			res.DoneAt = ready
			res.L2Miss, res.Coalesced = true, true
			h.Stats.Coalesced++
		}
		h.fillWithVictim(h.L1D, addr, write)
		return res
	}
	ready, coalesced := h.fillFromMemory(l2Done, addr)
	res.DoneAt = ready
	res.L2Miss = true
	res.Coalesced = coalesced
	h.fillWithVictim(h.L1D, addr, write)
	return res
}

// AccessFetch performs an instruction-side access through L1I.
func (h *Hierarchy) AccessFetch(now uint64, addr uint64) AccessResult {
	res := AccessResult{DoneAt: now + uint64(h.cfg.L1I.Latency)}
	if h.L1I.Lookup(addr, false) {
		if ready, ok := h.pendingFill(res.DoneAt, addr); ok {
			res.DoneAt = ready
			res.L1Miss, res.L2Miss, res.Coalesced = true, true, true
			h.Stats.Coalesced++
		}
		return res
	}
	res.L1Miss = true
	l2Done := res.DoneAt + uint64(h.cfg.L2.Latency)
	if h.L2.Lookup(addr, false) {
		res.DoneAt = l2Done
		if ready, ok := h.pendingFill(l2Done, addr); ok {
			res.DoneAt = ready
			res.L2Miss, res.Coalesced = true, true
			h.Stats.Coalesced++
		}
		h.fillWithVictim(h.L1I, addr, false)
		return res
	}
	ready, coalesced := h.fillFromMemory(l2Done, addr)
	res.DoneAt = ready
	res.L2Miss = true
	res.Coalesced = coalesced
	h.fillWithVictim(h.L1I, addr, false)
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
func (h *Hierarchy) translate(now uint64, tlb *TLB, addr uint64) WalkResult {
	if tlb.Lookup(addr) {
		return WalkResult{DoneAt: now + 1}
	}
	h.Stats.PageWalks++
	pteAddr := pageTableBase + tlb.VPN(addr)*8
	res := WalkResult{Walked: true}
	walkDone := now + uint64(h.cfg.L2.Latency)
	if !h.L2.Lookup(pteAddr, false) {
		ready, _ := h.fillFromMemory(walkDone, pteAddr)
		walkDone = ready
		res.L2Miss = true
		h.Stats.WalkL2Misses++
	}
	res.DoneAt = walkDone
	tlb.Fill(addr)
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

// Reset restores the hierarchy to cold state.
func (h *Hierarchy) Reset() {
	h.L1I.Reset()
	h.L1D.Reset()
	h.L2.Reset()
	h.ITLB.Reset()
	h.DTLB.Reset()
	h.Bus.Reset()
	h.outstanding = make(map[uint64]uint64)
	h.Stats = HierarchyStats{}
}

// ResetTiming clears timing state (bus occupancy and outstanding
// fills) while keeping cache/TLB contents. Used after functional
// warmup, whose synthetic timestamps would otherwise poison the
// timed run.
func (h *Hierarchy) ResetTiming() {
	h.Bus.Reset()
	h.outstanding = make(map[uint64]uint64)
}

// CopyFrom overwrites h's whole state with src's: cache and TLB
// contents, bus occupancy, outstanding fills and statistics. Both
// hierarchies must be built from the same configuration. It is the
// memory layer's part of copying a machine (a sibling run restoring
// another run's warmed state).
func (h *Hierarchy) CopyFrom(src *Hierarchy) {
	h.L1I.CopyFrom(src.L1I)
	h.L1D.CopyFrom(src.L1D)
	h.L2.CopyFrom(src.L2)
	h.ITLB.CopyFrom(src.ITLB)
	h.DTLB.CopyFrom(src.DTLB)
	h.Bus = src.Bus
	clear(h.outstanding)
	for line, ready := range src.outstanding {
		h.outstanding[line] = ready
	}
	h.Stats = src.Stats
}

// ResetStats clears statistics but keeps cache/TLB contents (end of
// warmup).
func (h *Hierarchy) ResetStats() {
	h.L1I.ResetStats()
	h.L1D.ResetStats()
	h.L2.ResetStats()
	h.ITLB.ResetStats()
	h.DTLB.ResetStats()
	h.Stats = HierarchyStats{}
	h.Bus.Transfers = 0
}
