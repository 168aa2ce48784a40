package pipeline

import (
	"testing"

	"soemt/internal/branch"
	"soemt/internal/isa"
	"soemt/internal/mem"
	"soemt/internal/workload"
)

// testMachine builds a pipeline with a small memory hierarchy.
func testMachine() *Pipeline {
	h, err := mem.NewHierarchyIn(nil, mem.DefaultConfig())
	if err != nil {
		panic(err)
	}
	cfg := DefaultConfig()
	bu := branch.NewUnit(cfg.BranchEntries, cfg.BTBEntries, cfg.RASDepth, cfg.HistoryBits)
	p, err := New(cfg, h, bu)
	if err != nil {
		panic(err)
	}
	return p
}

// aluProfile is pure single-cycle ALU work with high ILP: the machine
// should sustain IPC well above 1.
func aluProfile() workload.Profile {
	return workload.Profile{
		Name: "alu", Seed: 1,
		ChainFrac: 0.05, DepWindow: 24,
		HotBytes: 16 << 10, WarmBytes: 64 << 10, ColdBytes: 1 << 20,
		LoopLen: 256, TakenBias: 0.9, NoiseFrac: 0,
	}
}

// missyProfile generates frequent cold loads (guaranteed L2 misses).
func missyProfile() workload.Profile {
	return workload.Profile{
		Name: "missy", Seed: 2,
		FracLoad:  0.3,
		ChainFrac: 0.2, DepWindow: 8,
		HotBytes: 16 << 10, WarmBytes: 64 << 10, ColdBytes: 256 << 20,
		PWarm: 0, PCold: 0.05, StrideFrac: 0,
		LoopLen: 256, TakenBias: 0.9, NoiseFrac: 0,
	}
}

// run cycles the pipeline until `instrs` micro-ops retire, returning
// the cycle count.
func run(t *testing.T, p *Pipeline, prof workload.Profile, instrs uint64) uint64 {
	t.Helper()
	g := workload.New(prof)
	p.SetStream(0, workload.NewStream(g, 0), 0)
	var retired uint64
	now := uint64(0)
	limit := instrs * 2000
	for retired < instrs {
		r := p.Cycle(now)
		retired += uint64(r.Retired)
		now++
		if now > limit {
			t.Fatalf("pipeline made no progress: %d/%d retired in %d cycles (%s)",
				retired, instrs, now, p)
		}
	}
	return now
}

func TestRetiresInOrderAndMakesProgress(t *testing.T) {
	p := testMachine()
	cycles := run(t, p, aluProfile(), 50000)
	if cycles == 0 {
		t.Fatal("no cycles")
	}
	if p.Metrics.Retired < 50000 {
		t.Fatalf("retired = %d", p.Metrics.Retired)
	}
	if p.NextArchSeq() < 50000 {
		t.Fatalf("arch seq = %d", p.NextArchSeq())
	}
}

func TestHighILPWorkloadSustainsIPC(t *testing.T) {
	p := testMachine()
	const n = 200000
	cycles := run(t, p, aluProfile(), n)
	ipc := float64(n) / float64(cycles)
	if ipc < 1.5 {
		t.Errorf("ALU workload IPC = %.2f, expected > 1.5 on a 4-wide core", ipc)
	}
	if ipc > 4.0 {
		t.Errorf("IPC = %.2f exceeds machine width", ipc)
	}
}

func TestSerialChainLimitsIPC(t *testing.T) {
	serial := aluProfile()
	serial.Name = "serial"
	serial.ChainFrac = 1.0
	serial.DepWindow = 1
	p1 := testMachine()
	c1 := run(t, p1, serial, 100000)
	p2 := testMachine()
	c2 := run(t, p2, aluProfile(), 100000)
	if c1 <= c2 {
		t.Errorf("serial chain (%d cycles) should be slower than parallel (%d)", c1, c2)
	}
	ipcSerial := 100000.0 / float64(c1)
	if ipcSerial > 1.3 {
		t.Errorf("fully serial IPC = %.2f, expected near 1", ipcSerial)
	}
}

func TestColdLoadsCauseMissFlags(t *testing.T) {
	p := testMachine()
	run(t, p, missyProfile(), 100000)
	if p.Metrics.MissFlagged == 0 {
		t.Fatal("missy workload produced no flagged misses")
	}
	// Roughly FracLoad*PCold = 1.5% of instructions are cold loads;
	// coalescing reduces the flagged count, but it must be substantial.
	if p.Metrics.MissFlagged < 300 {
		t.Errorf("flagged misses = %d, suspiciously few", p.Metrics.MissFlagged)
	}
}

func TestMissyWorkloadMuchSlowerThanALU(t *testing.T) {
	pm := testMachine()
	cm := run(t, pm, missyProfile(), 100000)
	pa := testMachine()
	ca := run(t, pa, aluProfile(), 100000)
	if cm < ca*2 {
		t.Errorf("missy (%d cycles) should be >2x slower than ALU (%d): memory stalls missing", cm, ca)
	}
}

func TestHeadMissPendingReported(t *testing.T) {
	p := testMachine()
	g := workload.New(missyProfile())
	p.SetStream(0, workload.NewStream(g, 0), 0)
	sawPending := false
	var pendingSpan uint64
	var firstSeq uint64
	for now := uint64(0); now < 200000; now++ {
		r := p.Cycle(now)
		if r.HeadMissPending {
			if !sawPending {
				firstSeq = r.HeadMissSeq
			}
			sawPending = true
			pendingSpan++
			if r.HeadResolveAt <= now {
				t.Fatal("pending miss with resolve time in the past")
			}
		}
	}
	if !sawPending {
		t.Fatal("no head-miss-pending ever reported for missy workload")
	}
	// A head miss should block for a large fraction of the ~300-cycle
	// memory latency at least once.
	if pendingSpan < 100 {
		t.Errorf("total pending span = %d cycles, expected memory-scale stalls", pendingSpan)
	}
	_ = firstSeq
}

func TestSquashRewindsToArchPoint(t *testing.T) {
	p := testMachine()
	g := workload.New(aluProfile())
	s := workload.NewStream(g, 0)
	p.SetStream(0, s, 0)
	var retired uint64
	now := uint64(0)
	for retired < 1000 {
		retired += uint64(p.Cycle(now).Retired)
		now++
	}
	resume := p.Squash()
	if resume != p.NextArchSeq() {
		t.Fatalf("resume %d != arch seq %d", resume, p.NextArchSeq())
	}
	if !p.Drained() {
		t.Fatal("not drained after squash")
	}
	// Resume and check the next retired instruction is exactly resume.
	s.Seek(resume)
	p.SetStream(0, s, now)
	for {
		r := p.Cycle(now)
		if r.Retired > 0 {
			if got := p.NextArchSeq() - uint64(r.Retired); got != resume {
				t.Fatalf("first retired after resume = %d, want %d", got, resume)
			}
			break
		}
		now++
		if now > 1e6 {
			t.Fatal("no progress after resume")
		}
	}
}

func TestSquashPreservesStoreBuffer(t *testing.T) {
	p := testMachine()
	prof := aluProfile()
	prof.FracStore = 0.5
	g := workload.New(prof)
	p.SetStream(0, workload.NewStream(g, 0), 0)
	now := uint64(0)
	for p.StoreBufLen() == 0 && now < 100000 {
		p.Cycle(now)
		now++
	}
	if p.StoreBufLen() == 0 {
		t.Skip("no store buffered in window")
	}
	before := p.StoreBufLen()
	p.Squash()
	if p.StoreBufLen() != before {
		t.Fatal("squash dropped retired stores")
	}
}

func TestInstructionCountMatchesStream(t *testing.T) {
	// In-order retirement must retire exactly seq 0..n-1 with no gaps,
	// even across a squash/rewind.
	p := testMachine()
	g := workload.New(aluProfile())
	s := workload.NewStream(g, 0)
	p.SetStream(0, s, 0)
	now := uint64(0)
	var retired uint64
	for retired < 5000 {
		r := p.Cycle(now)
		retired += uint64(r.Retired)
		now++
	}
	if p.NextArchSeq() != retired {
		t.Fatalf("arch seq %d != retired %d (gap or replay)", p.NextArchSeq(), retired)
	}
	resume := p.Squash()
	s.Seek(resume)
	p.SetStream(0, s, now)
	for retired < 10000 {
		r := p.Cycle(now)
		retired += uint64(r.Retired)
		now++
	}
	if p.NextArchSeq() != retired {
		t.Fatalf("after squash: arch seq %d != retired %d", p.NextArchSeq(), retired)
	}
}

func TestBranchMispredictsHurtPerformance(t *testing.T) {
	noisy := aluProfile()
	noisy.Name = "noisy"
	noisy.FracBranch = 0.2
	noisy.NoiseFrac = 0.5
	clean := aluProfile()
	clean.Name = "clean"
	clean.FracBranch = 0.2
	clean.NoiseFrac = 0
	pn := testMachine()
	cn := run(t, pn, noisy, 100000)
	pc := testMachine()
	cc := run(t, pc, clean, 100000)
	if cn <= cc {
		t.Errorf("noisy branches (%d cycles) should be slower than clean (%d)", cn, cc)
	}
	if pn.BranchUnit().MispredictRate() < 0.1 {
		t.Errorf("noisy mispredict rate = %.3f, expected >= 0.1", pn.BranchUnit().MispredictRate())
	}
	if pc.BranchUnit().MispredictRate() > 0.05 {
		t.Errorf("clean mispredict rate = %.3f, expected small", pc.BranchUnit().MispredictRate())
	}
}

func TestStoreForwarding(t *testing.T) {
	p := testMachine()
	prof := aluProfile()
	prof.FracStore = 0.25
	prof.FracLoad = 0.25
	// All accesses in a tiny hot region: forwarding hits are likely.
	prof.HotBytes = 64
	run(t, p, prof, 50000)
	if p.Metrics.FwdLoads == 0 {
		t.Error("no store-to-load forwarding in a 64-byte working set")
	}
}

func TestInjectedEventStallsRetirement(t *testing.T) {
	base := aluProfile()
	p1 := testMachine()
	c1 := run(t, p1, base, 20000)

	p2 := testMachine()
	g := workload.New(base)
	p2.SetStream(0, workload.NewStream(g, 0), 0)
	p2.SetEvents([]InjectedStall{{AtInstr: 5000, StallCycles: 10000}})
	var retired uint64
	now := uint64(0)
	for retired < 20000 {
		retired += uint64(p2.Cycle(now).Retired)
		now++
		if now > 1e7 {
			t.Fatal("no progress with injected event")
		}
	}
	if now < c1+9000 {
		t.Errorf("event stall not applied: %d vs baseline %d", now, c1)
	}
}

func TestEventsBeforeCheckpointSkipped(t *testing.T) {
	p := testMachine()
	g := workload.New(aluProfile())
	p.SetStream(0, workload.NewStream(g, 1000), 0)
	p.SetEvents([]InjectedStall{{AtInstr: 10, StallCycles: 1 << 40}})
	now := uint64(0)
	var retired uint64
	for retired < 1000 && now < 100000 {
		retired += uint64(p.Cycle(now).Retired)
		now++
	}
	if retired < 1000 {
		t.Fatal("stale event applied: pipeline stalled")
	}
}

func TestPauseRetiredReported(t *testing.T) {
	// Hand-drive a stream containing PAUSE via a profile trick: use a
	// custom generator wrapper is overkill — instead check that NOP/PAUSE
	// complete without RS. We inject a pause-heavy mix by constructing
	// uops directly through a tiny custom stream.
	p := testMachine()
	prof := aluProfile()
	g := workload.New(prof)
	p.SetStream(0, workload.NewStream(g, 0), 0)
	// No pause in builtin mixes; just verify the flag stays false.
	for now := uint64(0); now < 10000; now++ {
		if p.Cycle(now).PauseRetired {
			t.Fatal("phantom PAUSE retirement")
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	p1 := testMachine()
	c1 := run(t, p1, missyProfile(), 50000)
	p2 := testMachine()
	c2 := run(t, p2, missyProfile(), 50000)
	if c1 != c2 {
		t.Fatalf("non-deterministic: %d vs %d cycles", c1, c2)
	}
	if p1.Metrics != p2.Metrics {
		t.Fatalf("metrics diverged: %+v vs %+v", p1.Metrics, p2.Metrics)
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := good
	bad.ROBSize = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for ROBSize=0")
	}
	bad = good
	bad.RedirectPenalty = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for negative penalty")
	}
	if p, err := New(bad, nil, nil); err == nil || p != nil {
		t.Fatalf("New must reject invalid config, got (%v, %v)", p, err)
	}
}

func TestROBNeverExceedsCapacity(t *testing.T) {
	p := testMachine()
	g := workload.New(missyProfile())
	p.SetStream(0, workload.NewStream(g, 0), 0)
	for now := uint64(0); now < 100000; now++ {
		p.Cycle(now)
		if occ := p.ROBOccupancy(); occ > p.Config().ROBSize {
			t.Fatalf("ROB occupancy %d exceeds %d", occ, p.Config().ROBSize)
		}
	}
}

func TestStringHasOccupancy(t *testing.T) {
	p := testMachine()
	s := p.String()
	if s == "" {
		t.Fatal("empty string")
	}
}

func TestUnpipelinedDivThrottles(t *testing.T) {
	divy := aluProfile()
	divy.Name = "divy"
	divy.FracDiv = 0.3
	pd := testMachine()
	cd := run(t, pd, divy, 30000)
	pa := testMachine()
	ca := run(t, pa, aluProfile(), 30000)
	// 30% divides at 20 cycles unpipelined: must be several times slower.
	if cd < ca*3 {
		t.Errorf("div workload %d cycles vs alu %d: unpipelined divide not modelled", cd, ca)
	}
}

func TestMemOpsTranslateThroughDTLB(t *testing.T) {
	p := testMachine()
	run(t, p, missyProfile(), 20000)
	if p.Hierarchy().DTLB.Stats.Accesses == 0 {
		t.Fatal("no DTLB activity for memory workload")
	}
	if p.Hierarchy().ITLB.Stats.Accesses == 0 {
		t.Fatal("no ITLB activity")
	}
}

func TestNopProfileCompletesWithoutRS(t *testing.T) {
	// NOPs bypass the RS; a NOP-heavy stream must still retire in order.
	p := testMachine()
	prof := aluProfile()
	// Can't express NOPs via Profile mix (by design the remainder is
	// ALU), so this exercises rename/retire paths with plain ALU ops
	// plus manual verification that kind NOP would be accepted: feed
	// one directly through the fetch queue.
	g := workload.New(prof)
	p.SetStream(0, workload.NewStream(g, 0), 0)
	p.push(isa.Uop{Seq: 0, Kind: isa.Nop}, 0, false)
	r := CycleResult{}
	for now := uint64(1); now < 100 && r.Retired == 0; now++ {
		r = p.Cycle(now)
	}
	if r.Retired == 0 {
		t.Fatal("NOP did not retire")
	}
}

func TestOccupancyMetrics(t *testing.T) {
	p := testMachine()
	run(t, p, aluProfile(), 50000)
	if p.Metrics.Cycles == 0 {
		t.Fatal("no cycles counted")
	}
	avgROB := p.Metrics.AvgROBOccupancy()
	if avgROB <= 0 || avgROB > float64(p.Config().ROBSize) {
		t.Fatalf("avg ROB occupancy %.1f out of range", avgROB)
	}
	avgRS := p.Metrics.AvgRSOccupancy()
	if avgRS < 0 || avgRS > float64(p.Config().RSSize) {
		t.Fatalf("avg RS occupancy %.1f out of range", avgRS)
	}
	var zero Metrics
	if zero.AvgROBOccupancy() != 0 || zero.AvgRSOccupancy() != 0 {
		t.Fatal("zero metrics must report zero occupancy")
	}
}

// A memory-bound thread's ROB should fill while the head blocks on a
// miss; the occupancy statistic must reflect that pressure relative to
// an ILP-bound thread.
func TestOccupancyHigherWhenMemoryBound(t *testing.T) {
	pm := testMachine()
	run(t, pm, missyProfile(), 60000)
	pa := testMachine()
	run(t, pa, aluProfile(), 60000)
	if pm.Metrics.AvgROBOccupancy() <= pa.Metrics.AvgROBOccupancy() {
		t.Errorf("missy ROB occupancy %.1f not above ALU %.1f",
			pm.Metrics.AvgROBOccupancy(), pa.Metrics.AvgROBOccupancy())
	}
}

func TestFetchQueueWraparound(t *testing.T) {
	// Exercise the circular fetch queue across many refills by running
	// long enough to wrap the queue index many times.
	p := testMachine()
	g := workload.New(aluProfile())
	p.SetStream(0, workload.NewStream(g, 0), 0)
	var retired uint64
	for now := uint64(0); retired < 30000; now++ {
		retired += uint64(p.Cycle(now).Retired)
		if now > 1e6 {
			t.Fatal("no progress")
		}
	}
	// In-order retirement across wraparound is already asserted by the
	// arch-seq invariant.
	if p.NextArchSeq() != retired {
		t.Fatalf("arch seq %d != retired %d after queue wraparound", p.NextArchSeq(), retired)
	}
}
