package mem

// Native Go fuzzing for the geometry validators: Validate must be
// total (never panic) on arbitrary configurations, and any
// configuration it accepts must build without error — the two halves
// of the "bad flags return errors, they never panic" contract.

import "testing"

func FuzzCacheConfigValidate(f *testing.F) {
	f.Add(32, 8, 64, 3)
	f.Add(0, 0, 0, 0)
	f.Add(-4, 7, 60, -1)
	f.Add(3, 16, 64, 1)

	f.Fuzz(func(t *testing.T, sizeKB, ways, lineSize, latency int) {
		// Bound the geometry so accepted configs allocate modest tag
		// arrays; validity logic is unaffected by the clamp.
		cfg := CacheConfig{
			SizeKB:   sizeKB % 8192,
			Ways:     ways % 1024,
			LineSize: lineSize % 4096,
			Latency:  latency,
		}
		err := cfg.Validate() // must not panic
		if err != nil {
			return
		}
		c, err := NewCacheIn(nil, cfg)
		if err != nil || c == nil {
			t.Fatalf("Validate accepted %+v but NewCacheIn failed: %v", cfg, err)
		}
	})
}

func FuzzTLBConfigValidate(f *testing.F) {
	f.Add(64, 4, 4096)
	f.Add(0, 0, 0)
	f.Add(7, 2, 1000)

	f.Fuzz(func(t *testing.T, entries, ways, pageSize int) {
		cfg := TLBConfig{
			Entries:  entries % 65536,
			Ways:     ways % 1024,
			PageSize: pageSize % (1 << 20),
		}
		err := cfg.Validate() // must not panic
		if err != nil {
			return
		}
		tlb, err := NewTLBIn(nil, cfg)
		if err != nil || tlb == nil {
			t.Fatalf("Validate accepted %+v but NewTLBIn failed: %v", cfg, err)
		}
	})
}

func FuzzHierarchyConfigValidate(f *testing.F) {
	f.Add(300, 8, 0, 0)
	f.Add(0, 0, -1, -1)

	f.Fuzz(func(t *testing.T, memLatency, mshrs, busOcc, prefetch int) {
		cfg := DefaultConfig()
		cfg.MemLatency = memLatency
		cfg.MSHRs = mshrs % 4096
		cfg.BusOccupancy = busOcc
		cfg.PrefetchDegree = prefetch
		err := cfg.Validate() // must not panic
		if err != nil {
			return
		}
		h, err := NewHierarchyIn(nil, cfg)
		if err != nil || h == nil {
			t.Fatalf("Validate accepted config but NewHierarchyIn failed: %v", err)
		}
	})
}
