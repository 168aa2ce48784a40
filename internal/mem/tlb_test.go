package mem

import "testing"

func smallTLB() *Cache {
	return mustTLB(TLBConfig{Name: "t", Entries: 16, Ways: 4, PageSize: 4096})
}

func TestTLBMissThenHit(t *testing.T) {
	tb := smallTLB()
	if tb.Lookup(0x1234, false) {
		t.Fatal("cold TLB must miss")
	}
	tb.Fill(0x1234, false)
	if !tb.Lookup(0x1234, false) {
		t.Fatal("filled translation must hit")
	}
	if !tb.Lookup(0x1fff, false) {
		t.Fatal("same page must hit")
	}
	if tb.Lookup(0x2000, false) {
		t.Fatal("next page must miss")
	}
	if tb.Stats.Accesses != 4 || tb.Stats.Misses != 2 {
		t.Fatalf("stats = %+v", tb.Stats)
	}
}

func TestTLBLRU(t *testing.T) {
	tb := smallTLB() // 4 sets, 4 ways; pages in same set: stride 4 pages
	pg := func(i uint64) uint64 { return i * 4 * 4096 }
	for i := uint64(0); i < 4; i++ {
		tb.Fill(pg(i), false)
	}
	tb.Lookup(pg(0), false) // refresh
	tb.Fill(pg(4), false)   // evicts pg(1)
	if !tb.Lookup(pg(0), false) {
		t.Error("refreshed entry evicted")
	}
	if tb.Lookup(pg(1), false) {
		t.Error("LRU entry not evicted")
	}
}

func TestTLBFillIdempotent(t *testing.T) {
	tb := smallTLB()
	tb.Fill(0x9000, false)
	tb.Fill(0x9000, false)
	tb.Fill(0x9000, false)
	// Only one way should be consumed: three more fills to the same set
	// must not evict it.
	tb.Fill(0x9000+4*4096, false)
	tb.Fill(0x9000+8*4096, false)
	tb.Fill(0x9000+12*4096, false)
	if !tb.Lookup(0x9000, false) {
		t.Fatal("duplicate fills consumed multiple ways")
	}
}

func TestTLBReset(t *testing.T) {
	tb := smallTLB()
	tb.Fill(0x4000, false)
	tb.Lookup(0x4000, false)
	tb.ResetStats()
	if tb.Stats.Accesses != 0 {
		t.Fatal("stats survive ResetStats")
	}
	if !tb.Lookup(0x4000, false) {
		t.Fatal("ResetStats dropped a translation")
	}
}

// TestTLBVPN checks that a TLB's line number, which the page walk
// takes as the virtual page number, counts pages.
func TestTLBVPN(t *testing.T) {
	tb := smallTLB()
	if tb.tag(0x1fff) != 1 {
		t.Fatalf("VPN(0x1fff) = %d", tb.tag(0x1fff))
	}
	if tb.tag(0x2000) != 2 {
		t.Fatalf("VPN(0x2000) = %d", tb.tag(0x2000))
	}
}

func TestTLBErrorsOnBadGeometry(t *testing.T) {
	cases := []TLBConfig{
		{Entries: 16, Ways: 4, PageSize: 1000}, // non-pow2 page
		{Entries: 15, Ways: 4, PageSize: 4096}, // entries % ways != 0
		{Entries: 0, Ways: 4, PageSize: 4096},
		{Entries: 24, Ways: 4, PageSize: 4096}, // 6 sets: not pow2
	}
	for i, cfg := range cases {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, cfg)
		}
		if tb, err := NewTLBIn(nil, cfg); err == nil || tb != nil {
			t.Errorf("case %d: expected error, got (%v, %v)", i, tb, err)
		}
	}
}

func TestTLBMissRateZero(t *testing.T) {
	var s CacheStats
	if s.MissRate() != 0 {
		t.Fatal("zero-access miss rate should be 0")
	}
}
