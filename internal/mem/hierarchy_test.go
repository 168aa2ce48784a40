package mem

import (
	"testing"

	"soemt/internal/rng"
)

func testConfig() HierarchyConfig {
	cfg := DefaultConfig()
	// Shrink for tests so misses are easy to provoke.
	cfg.L1I = CacheConfig{Name: "L1I", SizeKB: 4, LineSize: 64, Ways: 2, Latency: 3}
	cfg.L1D = CacheConfig{Name: "L1D", SizeKB: 4, LineSize: 64, Ways: 2, Latency: 3}
	cfg.L2 = CacheConfig{Name: "L2", SizeKB: 64, LineSize: 64, Ways: 4, Latency: 12}
	cfg.ITLB = TLBConfig{Name: "ITLB", Entries: 16, Ways: 4, PageSize: 4096}
	cfg.DTLB = TLBConfig{Name: "DTLB", Entries: 16, Ways: 4, PageSize: 4096}
	return cfg
}

func TestHierarchyL1Hit(t *testing.T) {
	h := mustHierarchy(testConfig())
	h.AccessData(0, 0x1000, false) // cold miss fills all levels
	r := h.AccessData(1000, 0x1000, false)
	if r.L1Miss || r.L2Miss {
		t.Fatalf("expected L1 hit, got %+v", r)
	}
	if got := r.DoneAt - 1000; got != 3 {
		t.Fatalf("L1 hit latency = %d, want 3", got)
	}
}

func TestHierarchyL2HitLatency(t *testing.T) {
	h := mustHierarchy(testConfig())
	h.AccessData(0, 0x1000, false)
	// Evict from L1D only: walk conflicting L1 sets (L1D 4KiB/2-way/64B
	// = 32 sets, stride 2048) but stay within L2 capacity.
	h.AccessData(400, 0x1000+2048, false)
	h.AccessData(800, 0x1000+4096, false)
	r := h.AccessData(5000, 0x1000, false)
	if !r.L1Miss || r.L2Miss {
		t.Fatalf("expected L1 miss/L2 hit, got %+v", r)
	}
	if got := r.DoneAt - 5000; got != 3+12 {
		t.Fatalf("L2 hit latency = %d, want 15", got)
	}
}

func TestHierarchyMemoryMissLatency(t *testing.T) {
	cfg := testConfig()
	h := mustHierarchy(cfg)
	r := h.AccessData(0, 0x4000, false)
	if !r.L1Miss || !r.L2Miss || r.Coalesced {
		t.Fatalf("cold access classification: %+v", r)
	}
	// Latency = L1 (3) + L2 (12) + bus grant (immediate) + mem (300).
	want := uint64(3 + 12 + cfg.MemLatency)
	if got := r.DoneAt; got != want {
		t.Fatalf("memory miss latency = %d, want %d", got, want)
	}
}

func TestHierarchyMSHRCoalescing(t *testing.T) {
	h := mustHierarchy(testConfig())
	r1 := h.AccessData(0, 0x8000, false)
	r2 := h.AccessData(5, 0x8010, false) // same 64B line, still in flight
	if !r2.L2Miss || !r2.Coalesced {
		t.Fatalf("expected coalesced miss, got %+v", r2)
	}
	if r2.DoneAt != r1.DoneAt {
		t.Fatalf("coalesced access must complete with the fill: %d vs %d", r2.DoneAt, r1.DoneAt)
	}
	if h.Stats.L2MissesDemand != 1 || h.Stats.Coalesced != 1 {
		t.Fatalf("stats = %+v", h.Stats)
	}
}

func TestHierarchyDistinctMissesSerializeOnBus(t *testing.T) {
	cfg := testConfig()
	h := mustHierarchy(cfg)
	r1 := h.AccessData(0, 0x10000, false)
	r2 := h.AccessData(0, 0x20000, false)
	if r2.DoneAt != r1.DoneAt+uint64(cfg.BusOccupancy) {
		t.Fatalf("second miss should trail by bus occupancy: %d vs %d", r2.DoneAt, r1.DoneAt)
	}
}

func TestHierarchyMSHRFullBackpressure(t *testing.T) {
	cfg := testConfig()
	cfg.MSHRs = 2
	h := mustHierarchy(cfg)
	h.AccessData(0, 0x100000, false)
	h.AccessData(0, 0x200000, false)
	r3 := h.AccessData(0, 0x300000, false)
	if h.Stats.MSHRFullStalls != 1 {
		t.Fatalf("expected MSHR stall, stats=%+v", h.Stats)
	}
	// Third miss cannot even start until an MSHR frees (~315).
	if r3.DoneAt <= uint64(cfg.MemLatency) {
		t.Fatalf("stalled miss latency %d too small", r3.DoneAt)
	}
}

func TestHierarchyAfterFillHits(t *testing.T) {
	h := mustHierarchy(testConfig())
	r := h.AccessData(0, 0x9000, false)
	r2 := h.AccessData(r.DoneAt+1, 0x9000, false)
	if r2.L1Miss {
		t.Fatal("line must hit after fill")
	}
}

func TestHierarchyFetchPath(t *testing.T) {
	h := mustHierarchy(testConfig())
	r := h.AccessFetch(0, 0x400)
	if !r.L1Miss || !r.L2Miss {
		t.Fatalf("cold fetch should miss: %+v", r)
	}
	r2 := h.AccessFetch(r.DoneAt, 0x404)
	if r2.L1Miss {
		t.Fatal("same fetch line must hit")
	}
	if h.L1I.Stats.Accesses != 2 {
		t.Fatalf("fetch must use L1I: %+v", h.L1I.Stats)
	}
	if h.L1D.Stats.Accesses != 0 {
		t.Fatal("fetch must not touch L1D")
	}
}

func TestHierarchyInclusionInvariant(t *testing.T) {
	// When L2 evicts a line, L1 copies must be invalidated: otherwise
	// L1 could hit on a line the L2 no longer tracks.
	cfg := testConfig()
	cfg.L2 = CacheConfig{Name: "L2", SizeKB: 8, LineSize: 64, Ways: 2, Latency: 12}
	h := mustHierarchy(cfg)
	now := uint64(0)
	// L2: 8KiB/2-way = 64 sets; conflict stride = 64*64 = 4096.
	base := uint64(0x1000)
	h.AccessData(now, base, false)
	// Two more conflicting L2 lines evict base from L2.
	r := h.AccessData(10000, base+4096, false)
	r = h.AccessData(r.DoneAt+1, base+8192, false)
	_ = r
	if h.L1D.Probe(base) && !h.L2.Probe(base) {
		t.Fatal("inclusion violated: line in L1D but not L2")
	}
}

func TestTranslateDataWalk(t *testing.T) {
	h := mustHierarchy(testConfig())
	w := h.TranslateData(0, 0x5000)
	if !w.Walked {
		t.Fatal("cold TLB must walk")
	}
	if !w.L2Miss {
		t.Fatal("cold walk must miss L2")
	}
	w2 := h.TranslateData(w.DoneAt, 0x5008) // same page
	if w2.Walked {
		t.Fatal("warm TLB must not walk")
	}
	if got := w2.DoneAt - w.DoneAt; got != 1 {
		t.Fatalf("TLB hit latency = %d, want 1", got)
	}
	if h.Stats.PageWalks != 1 || h.Stats.WalkL2Misses != 1 {
		t.Fatalf("stats = %+v", h.Stats)
	}
}

func TestTranslateWalkHitsL2WhenCached(t *testing.T) {
	h := mustHierarchy(testConfig())
	w1 := h.TranslateData(0, 0xA000)
	// Evict the translation from the small test TLB by touching many
	// pages mapping to the same TLB set (16 entries/4-way = 4 sets).
	for i := uint64(1); i <= 8; i++ {
		h.TranslateData(w1.DoneAt+i*1000, 0xA000+i*4*4096)
	}
	w2 := h.TranslateData(1e6, 0xA000)
	if !w2.Walked {
		t.Fatal("evicted translation must walk again")
	}
	// PTE line is now in L2 (8 PTEs per 64B line share it, but at
	// minimum the exact line was just filled), so no L2 miss.
	if w2.L2Miss {
		t.Fatal("re-walk should hit the cached PTE line")
	}
}

func TestTranslateFetchUsesITLB(t *testing.T) {
	h := mustHierarchy(testConfig())
	h.TranslateFetch(0, 0x1000)
	if h.ITLB.Stats.Accesses != 1 || h.DTLB.Stats.Accesses != 0 {
		t.Fatal("fetch translation must use ITLB only")
	}
}

func TestHierarchyResetAndResetStats(t *testing.T) {
	h := mustHierarchy(testConfig())
	h.AccessData(0, 0x7000, false)
	h.TranslateData(0, 0x7000)
	h.ResetStats()
	if h.Stats.L2MissesDemand != 0 || h.L1D.Stats.Accesses != 0 {
		t.Fatal("ResetStats left counters")
	}
	if !h.L1D.Probe(0x7000) {
		t.Fatal("ResetStats must keep contents")
	}
	// ResetTiming, after functional warmup, drops in-flight fills and
	// bus occupancy but keeps contents too.
	h.AccessData(0, 0x9000, false)
	h.ResetTiming()
	if len(h.mshrs) != 0 {
		t.Fatalf("ResetTiming left %d fills in flight", len(h.mshrs))
	}
	if !h.L1D.Probe(0x7000) || !h.L1D.Probe(0x9000) {
		t.Fatal("ResetTiming must keep contents")
	}
}

func TestHierarchyErrorsOnBadConfig(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*HierarchyConfig)
	}{
		{"MemLatency=0", func(c *HierarchyConfig) { c.MemLatency = 0 }},
		{"MSHRs=0", func(c *HierarchyConfig) { c.MSHRs = 0 }},
		{"BusOccupancy<0", func(c *HierarchyConfig) { c.BusOccupancy = -1 }},
		{"PrefetchDegree<0", func(c *HierarchyConfig) { c.PrefetchDegree = -1 }},
		{"bad L1D", func(c *HierarchyConfig) { c.L1D.LineSize = 60 }},
		{"bad DTLB", func(c *HierarchyConfig) { c.DTLB.Entries = 7 }},
	}
	for _, m := range mutations {
		cfg := testConfig()
		m.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted bad config", m.name)
		}
		if h, err := NewHierarchyIn(nil, cfg); err == nil || h != nil {
			t.Errorf("%s: expected error, got (%v, %v)", m.name, h, err)
		}
	}
}

func TestBusPipelining(t *testing.T) {
	b := Bus{Occupancy: 4}
	if g := b.Acquire(10); g != 10 {
		t.Fatalf("idle bus grant = %d", g)
	}
	if g := b.Acquire(11); g != 14 {
		t.Fatalf("busy bus grant = %d, want 14", g)
	}
	if g := b.Acquire(100); g != 100 {
		t.Fatalf("idle-again grant = %d", g)
	}
	if b.Transfers != 3 {
		t.Fatalf("transfers = %d", b.Transfers)
	}
}

func TestOutstandingFillsReaped(t *testing.T) {
	h := mustHierarchy(testConfig())
	h.AccessData(0, 0x30000, false)
	if n := outstanding(h, 0); n != 1 {
		t.Fatalf("outstanding = %d, want 1", n)
	}
	if n := outstanding(h, 10000); n != 0 {
		t.Fatalf("outstanding after completion = %d, want 0", n)
	}
}

// outstanding returns the number of line fills still in flight at now.
func outstanding(h *Hierarchy, now uint64) int {
	h.reap(now)
	return len(h.mshrs)
}

// Monotonic-time property: results never complete before issue+L1
// latency, and repeated random accesses keep classifications sane.
func TestHierarchyTimingMonotonicProperty(t *testing.T) {
	h := mustHierarchy(testConfig())
	s := rng.NewStream(77)
	now := uint64(0)
	for i := 0; i < 20000; i++ {
		addr := uint64(s.Intn(1 << 22))
		r := h.AccessData(now, addr, s.Intn(4) == 0)
		if r.DoneAt < now+3 {
			t.Fatalf("completion before minimum latency: now=%d done=%d", now, r.DoneAt)
		}
		if r.L2Miss && !r.L1Miss {
			t.Fatal("L2 miss without L1 miss is impossible")
		}
		now += uint64(s.Intn(10))
	}
}

func TestDefaultConfigGeometry(t *testing.T) {
	cfg := DefaultConfig()
	h := mustHierarchy(cfg) // must not panic
	if len(h.L2.lines) != 32768 {
		t.Fatalf("L2 lines = %d", len(h.L2.lines))
	}
	if cfg.MemLatency != 300 {
		t.Fatal("paper requires 300-cycle memory")
	}
}

func TestPrefetcherNextLine(t *testing.T) {
	cfg := testConfig()
	cfg.PrefetchDegree = 2
	h := mustHierarchy(cfg)
	r1 := h.AccessData(0, 0x40000, false)
	if !r1.L2Miss || r1.Coalesced {
		t.Fatal("first access should demand-miss")
	}
	if h.Stats.Prefetches != 2 {
		t.Fatalf("prefetches = %d, want 2", h.Stats.Prefetches)
	}
	// The next line is in flight: an access to it coalesces rather
	// than paying a fresh memory round trip.
	r2 := h.AccessData(10, 0x40040, false)
	if !r2.Coalesced {
		t.Fatalf("next-line access should coalesce into the prefetch: %+v", r2)
	}
	if r2.DoneAt > r1.DoneAt+uint64(2*cfg.BusOccupancy) {
		t.Fatalf("prefetched line arrives late: %d vs demand %d", r2.DoneAt, r1.DoneAt)
	}
	// After the fills complete, a demand hit on the prefetched line
	// counts as a prefetch hit.
	h.AccessData(r2.DoneAt+1, 0x40080, false)
	if h.L2.Stats.PrefetchHits == 0 {
		t.Fatal("no prefetch hits recorded")
	}
}

func TestPrefetcherDisabledByDefault(t *testing.T) {
	h := mustHierarchy(testConfig())
	h.AccessData(0, 0x50000, false)
	if h.Stats.Prefetches != 0 {
		t.Fatal("prefetcher active with degree 0")
	}
}

func TestPrefetcherRespectsMSHRBudget(t *testing.T) {
	cfg := testConfig()
	cfg.PrefetchDegree = 8
	cfg.MSHRs = 3
	h := mustHierarchy(cfg)
	h.AccessData(0, 0x60000, false)
	// 1 demand + at most 2 prefetches fit the MSHRs.
	if n := outstanding(h, 0); n > 3 {
		t.Fatalf("outstanding fills %d exceed MSHRs", n)
	}
	if h.Stats.MSHRFullStalls != 0 {
		t.Fatal("prefetches must not consume demand-stall accounting")
	}
}

func TestPrefetcherReducesStreamingMisses(t *testing.T) {
	run := func(degree int) uint64 {
		cfg := testConfig()
		cfg.PrefetchDegree = degree
		h := mustHierarchy(cfg)
		now := uint64(0)
		// Stream sequentially through 4 MiB.
		for a := uint64(1 << 20); a < (1<<20)+(4<<20); a += 64 {
			r := h.AccessData(now, a, false)
			now = r.DoneAt + 1
		}
		return h.Stats.L2MissesDemand
	}
	off := run(0)
	on := run(4)
	if on >= off/2 {
		t.Errorf("prefetcher ineffective on stream: %d demand misses vs %d without", on, off)
	}
}

// TestHierarchyTimingAllocFree pins that a built hierarchy allocates
// nothing per run: resetting its timing state, then a demand miss that
// also issues a prefetch fill, a hit that coalesces into the in-flight
// fill and a miss that waits for a free MSHR must not touch the heap.
func TestHierarchyTimingAllocFree(t *testing.T) {
	cfg := testConfig()
	cfg.MSHRs = 2
	cfg.PrefetchDegree = 1
	h := mustHierarchy(cfg)
	base := uint64(0)
	allocs := testing.AllocsPerRun(50, func() {
		base += 1 << 16 // fresh lines every run
		h.ResetTiming()
		h.AccessData(0, base, false)         // miss plus one prefetch: both MSHRs busy
		h.AccessData(1, base, false)         // L1 hit on the in-flight line
		h.AccessData(2, base+(1<<12), false) // waits for the earliest fill
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per run, want 0", allocs)
	}
	const runs = 51 // AllocsPerRun adds one warm-up call
	s := h.Stats
	if s.L2MissesDemand != 2*runs || s.Prefetches != runs || s.Coalesced != runs || s.MSHRFullStalls != runs {
		t.Fatalf("stats %+v do not show %d of each event", s, runs)
	}
}
