package mem

import (
	"testing"
	"testing/quick"

	"soemt/internal/rng"
)

func smallCache() *Cache {
	// 4 KiB, 4-way, 64B lines -> 16 sets.
	return mustCache(CacheConfig{Name: "t", SizeKB: 4, LineSize: 64, Ways: 4, Latency: 2})
}

func TestCacheGeometry(t *testing.T) {
	c := smallCache()
	if len(c.lines) != 64 {
		t.Fatalf("lines = %d, want 64", len(c.lines))
	}
	if len(c.sets) != 16 {
		t.Fatalf("sets = %d, want 16", len(c.sets))
	}
}

func TestCacheErrorsOnBadGeometry(t *testing.T) {
	cases := []CacheConfig{
		{SizeKB: 4, LineSize: 60, Ways: 4},              // non-power-of-two line
		{SizeKB: 4, LineSize: 64, Ways: 0},              // zero ways
		{SizeKB: 0, LineSize: 64, Ways: 4},              // zero size
		{SizeKB: 3, LineSize: 64, Ways: 16},             // 3 sets: not power of two
		{SizeKB: 4, LineSize: 64, Ways: 4, Latency: -1}, // negative latency
	}
	for i, cfg := range cases {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, cfg)
		}
		if c, err := NewCacheIn(nil, cfg); err == nil || c != nil {
			t.Errorf("case %d: expected error for %+v, got (%v, %v)", i, cfg, c, err)
		}
	}
}

func TestCacheMissThenHit(t *testing.T) {
	c := smallCache()
	if c.Lookup(0x1000, false) {
		t.Fatal("cold cache must miss")
	}
	c.Fill(0x1000, false)
	if !c.Lookup(0x1000, false) {
		t.Fatal("filled line must hit")
	}
	// Same line, different offset must hit.
	if !c.Lookup(0x103f, false) {
		t.Fatal("same-line offset must hit")
	}
	// Next line must miss.
	if c.Lookup(0x1040, false) {
		t.Fatal("adjacent line must miss")
	}
	if c.Stats.Accesses != 4 || c.Stats.Misses != 2 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := smallCache() // 4 ways
	// Five conflicting lines in set 0 (stride = sets*64 = 1024).
	addrs := []uint64{0, 1024, 2048, 3072, 4096}
	for _, a := range addrs[:4] {
		c.Fill(a, false)
	}
	// Touch addr 0 to make 1024 the LRU victim.
	c.Lookup(0, false)
	c.Fill(addrs[4], false)
	if !c.Probe(0) {
		t.Error("recently used line evicted")
	}
	if c.Probe(1024) {
		t.Error("LRU line not evicted")
	}
}

func TestCacheDirtyWriteback(t *testing.T) {
	c := smallCache()
	c.Fill(0, true) // dirty fill
	for i := uint64(1); i <= 4; i++ {
		c.Fill(i*1024, false)
	}
	if c.Stats.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Stats.Writebacks)
	}
	// Write-hit marks dirty.
	c.Fill(0x8000, false)
	c.Lookup(0x8000, true)
	present, dirty := c.Invalidate(0x8000)
	if !present || !dirty {
		t.Fatal("write hit must mark line dirty")
	}
}

func TestCacheFillIdempotent(t *testing.T) {
	c := smallCache()
	c.Fill(0x2000, false)
	evicted, _, _ := c.Fill(0x2000, true)
	if evicted {
		t.Fatal("refilling a present line must not evict")
	}
	_, dirty := c.Invalidate(0x2000)
	if !dirty {
		t.Fatal("refill with dirty=true must mark dirty")
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := smallCache()
	if p, _ := c.Invalidate(0x3000); p {
		t.Fatal("invalidate of absent line must report absent")
	}
	c.Fill(0x3000, false)
	if p, d := c.Invalidate(0x3000); !p || d {
		t.Fatal("invalidate of clean line must report present, clean")
	}
	if c.Probe(0x3000) {
		t.Fatal("line present after invalidate")
	}
}

// The reset at the end of warmup clears statistics and keeps the
// warmed contents.
func TestCacheReset(t *testing.T) {
	c := smallCache()
	c.Fill(0x1000, false)
	c.Lookup(0x1000, false)
	c.ResetStats()
	if c.Stats != (CacheStats{}) {
		t.Fatalf("stats after ResetStats = %+v", c.Stats)
	}
	if !c.Probe(0x1000) {
		t.Fatal("ResetStats dropped a line")
	}
}

func TestCacheWorkingSetFits(t *testing.T) {
	// A working set equal to capacity must self-stabilize: after one
	// pass, every line hits.
	c := smallCache()
	lines := len(c.lines)
	for i := 0; i < lines; i++ {
		if !c.Lookup(uint64(i*64), false) {
			c.Fill(uint64(i*64), false)
		}
	}
	c.ResetStats()
	for i := 0; i < lines; i++ {
		if !c.Lookup(uint64(i*64), false) {
			t.Fatalf("line %d missed on second pass", i)
		}
	}
	if c.Stats.MissRate() != 0 {
		t.Fatal("resident working set must not miss")
	}
}

func TestCacheLineAddr(t *testing.T) {
	c := smallCache()
	f := func(addr uint64) bool {
		la := c.LineAddr(addr)
		return la%64 == 0 && la <= addr && addr-la < 64
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a filled line always hits immediately afterwards,
// regardless of interleaved accesses to other sets.
func TestCacheFillThenHitProperty(t *testing.T) {
	c := mustCache(CacheConfig{Name: "p", SizeKB: 8, LineSize: 64, Ways: 2, Latency: 1})
	s := rng.NewStream(123)
	for i := 0; i < 5000; i++ {
		addr := uint64(s.Intn(1 << 20))
		c.Fill(addr, false)
		if !c.Lookup(addr, false) {
			t.Fatalf("iteration %d: fill(%#x) not followed by hit", i, addr)
		}
	}
}

func TestCacheMissRateZeroAccesses(t *testing.T) {
	var s CacheStats
	if s.MissRate() != 0 {
		t.Fatal("zero-access miss rate should be 0")
	}
}
