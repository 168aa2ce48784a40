package mem

import (
	"testing"

	"soemt/internal/rng"
)

// Property: the hierarchy never loses inclusion between L1D and L2
// under arbitrary interleavings of data accesses, walks and fetches.
func TestInclusionPropertyRandomized(t *testing.T) {
	cfg := testConfig()
	cfg.L2 = CacheConfig{Name: "L2", SizeKB: 16, LineSize: 64, Ways: 2, Latency: 12}
	cfg.PrefetchDegree = 2
	h := mustHierarchy(cfg)
	s := rng.NewStream(321)
	now := uint64(0)
	var sample []uint64
	for i := 0; i < 30000; i++ {
		addr := uint64(s.Intn(1 << 21))
		switch s.Intn(4) {
		case 0:
			h.AccessFetch(now, addr)
		case 1:
			h.TranslateData(now, addr)
		default:
			h.AccessData(now, addr, s.Intn(2) == 0)
		}
		if i%64 == 0 {
			sample = append(sample, addr)
		}
		now += uint64(s.Intn(20))
		// Spot-check inclusion over the sampled addresses.
		if i%4096 == 0 {
			for _, a := range sample {
				if (h.L1D.Probe(a) || h.L1I.Probe(a)) && !h.L2.Probe(a) {
					t.Fatalf("inclusion violated for %#x at step %d", a, i)
				}
			}
		}
	}
}

// Property: cache statistics are internally consistent — misses never
// exceed accesses, evictions never exceed fills (bounded by misses on
// the demand path).
func TestCacheStatsConsistency(t *testing.T) {
	c := mustCache(CacheConfig{Name: "p", SizeKB: 8, LineSize: 64, Ways: 4, Latency: 1})
	s := rng.NewStream(9)
	for i := 0; i < 50000; i++ {
		addr := uint64(s.Intn(1 << 18))
		if !c.Lookup(addr, s.Intn(3) == 0) {
			c.Fill(addr, false)
		}
	}
	if c.Stats.Misses > c.Stats.Accesses {
		t.Fatal("misses exceed accesses")
	}
	if c.Stats.Writebacks > c.Stats.Evictions {
		t.Fatal("writebacks exceed evictions")
	}
	if c.Stats.Evictions > c.Stats.Misses {
		t.Fatal("evictions exceed fills")
	}
}

// Property: TLB fill-then-lookup always hits within one round of
// unrelated traffic bounded by associativity.
func TestTLBFillThenHitProperty(t *testing.T) {
	tb := mustTLB(TLBConfig{Name: "p", Entries: 64, Ways: 4, PageSize: 4096})
	s := rng.NewStream(5)
	for i := 0; i < 20000; i++ {
		addr := uint64(s.Intn(1 << 26))
		tb.Fill(addr, false)
		if !tb.Lookup(addr, false) {
			t.Fatalf("fill not visible at step %d", i)
		}
	}
}
