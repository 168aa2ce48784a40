package pipeline

import (
	"fmt"
	"testing"

	"soemt/internal/isa"
	"soemt/internal/workload"
)

// TestStoreBufferRing exercises the head-index ring that replaced the
// O(n) copy-per-dispatch drain: FIFO dispatch order, occupancy
// accounting, compaction invariants, and forwarding across a live
// [sbHead:] window.
func TestStoreBufferRing(t *testing.T) {
	p := testMachine()
	// Fill well past the compaction threshold through interleaved
	// append/dispatch so sbHead walks deep into the backing array.
	next := uint64(0x1000)
	var expect []uint64
	for round := 0; round < 300; round++ {
		p.sbAddr = append(p.sbAddr, next)
		p.sbTid = append(p.sbTid, 0)
		expect = append(expect, next)
		next += 64
		if round%2 == 1 {
			p.dispatchStores(uint64(round))
			expect = expect[1:]
		}
		if p.StoreBufLen() != len(expect) {
			t.Fatalf("round %d: StoreBufLen = %d, want %d", round, p.StoreBufLen(), len(expect))
		}
		if p.sbHead > len(p.sbAddr) {
			t.Fatalf("round %d: sbHead %d past buffer end %d", round, p.sbHead, len(p.sbAddr))
		}
		// The compaction policy bounds the dead prefix: it is reclaimed
		// once it reaches 64 entries AND half the backing array.
		if p.sbHead >= 64 && p.sbHead*2 >= len(p.sbAddr)+2 {
			t.Fatalf("round %d: dead prefix %d/%d survived compaction", round, p.sbHead, len(p.sbAddr))
		}
		// Live window must match FIFO expectation.
		for i, addr := range p.sbAddr[p.sbHead:] {
			if addr != expect[i] {
				t.Fatalf("round %d: live[%d] = %#x, want %#x", round, i, addr, expect[i])
			}
		}
		// Forwarding must see exactly the live entries.
		if len(expect) > 0 && !p.forwardable(expect[0]) {
			t.Fatalf("round %d: oldest live store not forwardable", round)
		}
		if round > 0 && p.sbHead > 0 && !p.forwardable(expect[len(expect)-1]) {
			t.Fatalf("round %d: newest live store not forwardable", round)
		}
	}
	// Drain fully: the backing array must be released.
	for p.StoreBufLen() > 0 {
		p.dispatchStores(1 << 20)
	}
	if len(p.sbAddr) != 0 || p.sbHead != 0 {
		t.Fatalf("drained buffer not reset: len=%d head=%d", len(p.sbAddr), p.sbHead)
	}
}

// plantROB installs a bare, unissued ALU micro-op at ROB id (test
// scaffolding for scheduler tests that bypass rename).
func (p *Pipeline) plantROB(id uint64, u isa.Uop) {
	s := id & p.robMask
	p.robUop[s] = u
	p.robDoneAt[s] = 0
	p.robFlags[s] = 0
}

// plantRS installs a ready (operand-free) RS entry in the given slot.
func (p *Pipeline) plantRS(slot int, robID, seqNum uint64, kind isa.Kind) {
	p.rsValid[slot>>6] |= 1 << uint(slot&63)
	p.rsReady[slot>>6] |= 1 << uint(slot&63)
	p.rsRob[slot] = robID
	p.rsKey[slot] = seqNum<<keySeqShift | uint64(isa.PortMask[kind])<<keyPortShift | uint64(slot)
	p.rsHas[slot] = 0
	p.rsWaitCnt[slot] = 0
	p.rsWakeAt[slot] = 0
	p.rsCount++
}

// TestIssueOldestFirst pins the scheduler's oldest-first selection: with
// more ready entries than free ports, the issued subset must be exactly
// the lowest seqNums, regardless of RS slot order.
func TestIssueOldestFirst(t *testing.T) {
	p := testMachine()
	// Three ready ALU entries placed in reverse age order across RS
	// slots. ALU has two ports, so one issue() pass takes exactly two —
	// and they must be the two oldest.
	ids := []uint64{0, 1, 2}
	seqs := []uint64{30, 10, 20} // slot order deliberately != age order
	p.nextID = 3
	for i, id := range ids {
		p.plantROB(id, isa.Uop{Seq: id, Kind: isa.ALU, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone})
		p.plantRS(i, id, seqs[i], isa.ALU)
	}
	p.issue(100)
	issuedSeqs := map[uint64]bool{}
	for _, id := range ids {
		if p.robFlags[id&p.robMask]&rfIssued != 0 {
			issuedSeqs[seqByID(seqs, ids, id)] = true
		}
	}
	if len(issuedSeqs) != 2 || !issuedSeqs[10] || !issuedSeqs[20] {
		t.Fatalf("issued seqNums %v, want exactly the two oldest {10, 20}", issuedSeqs)
	}
	if p.rsCount != 1 {
		t.Fatalf("rsCount = %d after issuing two of three", p.rsCount)
	}
}

func seqByID(seqs, ids []uint64, id uint64) uint64 {
	for i, x := range ids {
		if x == id {
			return seqs[i]
		}
	}
	panic("unknown id")
}

// TestIssueWakeCacheTransparent runs the same workloads on a normal
// pipeline and on one whose issue-wake cache is defeated before every
// cycle (forcing the pre-optimization always-scan behavior), asserting
// identical cycle-by-cycle state. This is the regression guard that the
// early-bail + wake-cache optimization never changes issue order or
// timing.
func TestIssueWakeCacheTransparent(t *testing.T) {
	for _, prof := range []workload.Profile{aluProfile(), missyProfile()} {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			t.Parallel()
			a := testMachine()
			b := testMachine()
			ga := workload.NewOffset(prof, 0)
			gb := workload.NewOffset(prof, 0)
			a.SetStream(0, workload.NewStream(ga, 0), 0)
			b.SetStream(0, workload.NewStream(gb, 0), 0)
			for now := uint64(0); now < 60_000; now++ {
				ra := a.Cycle(now)
				b.issueWakeAt = 0 // defeat the cache: always scan
				rb := b.Cycle(now)
				if ra != rb {
					t.Fatalf("cycle %d: results diverge: %+v vs %+v", now, ra, rb)
				}
				sa, sb := stateKey(a), stateKey(b)
				if sa != sb {
					t.Fatalf("cycle %d: state diverges\ncached:      %s\nalways-scan: %s", now, sa, sb)
				}
			}
		})
	}
}

// stateKey captures occupancy, metrics and scheduler-visible state
// (excluding the wake memo itself).
func stateKey(p *Pipeline) string {
	return fmt.Sprintf("%s m=%+v ports=%v head=%d next=%d arch=%d",
		p.String(), p.Metrics, p.portBusy, p.headID, p.nextID, p.nextArchSeq)
}
