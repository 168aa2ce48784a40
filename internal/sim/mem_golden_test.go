package sim

import (
	"testing"

	"soemt/internal/core"
)

// The seed and matrix goldens all run the paper's memory system: the
// prefetcher off and 16 MSHRs. This cell pins a whole machine whose
// next-line prefetcher issues fills and whose MSHRs run out, so the
// MSHR bookkeeping and the prefetch install path are held to digests
// taken before either was rewritten.

const memGoldenPath = "testdata/mem_golden.json"

const memGoldenComment = "Result digests of a swim:mcf pair with a 4-degree next-line prefetcher and 4 MSHRs, captured at commit 2ac2e5e (MSHRs kept in a Go map); regenerate with SOEMT_REGEN_GOLDEN=1 go test ./internal/sim -run TestPrefetchMSHRGolden"

func prefetchMSHRSpec() Spec {
	return diffSpec([]string{"swim", "mcf"}, core.Fairness{F: 1}, func(s *Spec) {
		s.Machine.Memory.PrefetchDegree = 4
		s.Machine.Memory.MSHRs = 4
	})
}

// TestPrefetchMSHRGolden recomputes the cell on both engines and
// compares it with the committed digests.
func TestPrefetchMSHRGolden(t *testing.T) {
	verifyGolden(t, memGoldenPath, memGoldenComment, map[string]Spec{
		"pair-prefetch4-mshr4-swim-mcf-F1": prefetchMSHRSpec(),
	})
}

// TestPrefetchMSHRCellFillsMSHRs checks that the golden cell exercises
// what it pins: over its measured window the prefetcher issues fills
// and demand misses wait for a free MSHR. The machine is driven through
// the same phases as RunContext.
func TestPrefetchMSHRCellFillsMSHRs(t *testing.T) {
	spec := prefetchMSHRSpec()
	m, err := buildMachine(nil, spec, spec.Machine.Controller)
	if err != nil {
		t.Fatal(err)
	}
	m.ctl.SetEngine(core.EngineFastForward)
	for i, ts := range spec.Threads {
		if err := warmCaches(m.hier, m.gens[i], ts.StartSeq, spec.Scale.CacheWarm, func() error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	m.hier.ResetTiming()
	m.hier.ResetStats()
	max := spec.Scale.MaxCycles
	m.ctl.Advance(spec.Scale.Warm, max, 0, max)
	m.ctl.ResetStats()
	m.ctl.Advance(spec.Scale.Measure, max, m.ctl.Now(), max)
	s := m.hier.Stats
	if s.Prefetches == 0 || s.MSHRFullStalls == 0 {
		t.Fatalf("measured window: %d prefetches, %d MSHR-full stalls; want both > 0", s.Prefetches, s.MSHRFullStalls)
	}
	t.Logf("measured window: %d prefetches, %d MSHR-full stalls, %d demand L2 misses", s.Prefetches, s.MSHRFullStalls, s.L2MissesDemand)
}
