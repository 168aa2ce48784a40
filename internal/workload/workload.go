// Package workload generates the synthetic programs that drive the
// simulator.
//
// The paper evaluates on SPEC CPU2000 LITs (checkpointed traces of
// real applications), which are proprietary and not distributable.
// Following DESIGN.md §2, this package substitutes parameterised
// synthetic workloads: each Profile describes a program's instruction
// mix, instruction-level parallelism, memory-reference locality and
// branch behaviour, and the generator expands it into a deterministic
// micro-op stream. Profiles named after SPEC benchmarks (gcc, eon,
// swim, ...) are calibrated so that the *characteristics that matter
// to the paper* — instructions-per-miss (IPM), cycles-per-miss (CPM)
// and no-miss IPC — span the same range as the paper's benchmark
// pairs.
//
// Generation is a pure function of (profile, sequence number): the
// micro-op at position i can be regenerated at any time in O(1). The
// pipeline relies on this to rewind the front end after a thread
// switch squashes in-flight instructions.
package workload

import (
	"fmt"
	"math"
	"sort"

	"soemt/internal/isa"
	"soemt/internal/rng"
)

// Phase modifies generation parameters over a window of the
// instruction stream, modelling program phase behaviour (the paper's
// Figure 5 discussion). Phases repeat cyclically.
type Phase struct {
	Len       uint64  // phase length in instructions
	ColdScale float64 // multiplier on PCold (1 = unchanged)
	IlpScale  float64 // multiplier on ChainFrac (1 = unchanged)
}

// Profile parameterises a synthetic program.
type Profile struct {
	Name string
	Seed uint64

	// Instruction mix: fractions of the stream (the remainder is
	// single-cycle integer ALU work).
	FracLoad   float64
	FracStore  float64
	FracBranch float64
	FracMul    float64
	FracDiv    float64
	FracFAdd   float64
	FracFMul   float64
	FracFDiv   float64
	FracPause  float64 // x86 PAUSE-style switch hints (§6 extension)

	// Instruction-level parallelism. ChainFrac is the probability that
	// an op's first source is the immediately preceding op (a serial
	// dependence chain); other sources are drawn uniformly from the
	// previous DepWindow ops.
	ChainFrac float64
	DepWindow int

	// Memory locality: accesses go to a hot region (L1-resident), a
	// warm region (L2-resident) or a cold region (larger than L2, so
	// references miss). PHot = 1 - PWarm - PCold.
	HotBytes  uint64
	WarmBytes uint64
	ColdBytes uint64
	PWarm     float64
	PCold     float64
	// StrideFrac of cold accesses walk sequentially (consecutive
	// references share lines and coalesce in the MSHRs — the paper's
	// overlapped-miss case); the rest are scattered.
	StrideFrac float64

	// Branch behaviour. The code is a loop of LoopLen instructions;
	// branch sites are fixed PCs inside it. NoiseFrac of each site's
	// outcomes are random (unpredictable); the rest follow the site's
	// bias/pattern.
	LoopLen   uint64
	TakenBias float64
	NoiseFrac float64

	// Optional phase schedule (cyclic).
	Phases []Phase
}

// finiteUnit reports whether v is a finite value in [0, 1].
func finiteUnit(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0 && v <= 1
}

// Validate reports configuration errors in the profile.
func (p *Profile) Validate() error {
	// Every instruction-mix fraction must individually be a valid
	// probability. Checking only the sum is not enough: a negative
	// fraction can cancel an oversized one (e.g. FracLoad=1.2,
	// FracStore=-0.3 sums to 0.9) and the generator's cumulative cdf
	// thresholds would silently exceed 1 while the implicit ALU
	// remainder goes negative.
	fracs := []struct {
		name string
		v    float64
	}{
		{"FracLoad", p.FracLoad}, {"FracStore", p.FracStore},
		{"FracBranch", p.FracBranch}, {"FracMul", p.FracMul},
		{"FracDiv", p.FracDiv}, {"FracFAdd", p.FracFAdd},
		{"FracFMul", p.FracFMul}, {"FracFDiv", p.FracFDiv},
		{"FracPause", p.FracPause},
	}
	sum := 0.0
	for _, f := range fracs {
		if !finiteUnit(f.v) {
			return fmt.Errorf("workload %q: instruction-mix fraction %s = %v must be in [0, 1]",
				p.Name, f.name, f.v)
		}
		sum += f.v
	}
	if sum > 1+1e-12 {
		return fmt.Errorf("workload %q: instruction mix sums to %.3f > 1 (the implicit ALU remainder would be negative)",
			p.Name, sum)
	}
	probs := []struct {
		name string
		v    float64
	}{
		{"PWarm", p.PWarm}, {"PCold", p.PCold},
		{"ChainFrac", p.ChainFrac}, {"StrideFrac", p.StrideFrac},
		{"TakenBias", p.TakenBias}, {"NoiseFrac", p.NoiseFrac},
	}
	for _, f := range probs {
		if !finiteUnit(f.v) {
			return fmt.Errorf("workload %q: %s = %v must be in [0, 1]", p.Name, f.name, f.v)
		}
	}
	if p.PWarm+p.PCold > 1 {
		return fmt.Errorf("workload %q: PWarm+PCold = %.3f > 1", p.Name, p.PWarm+p.PCold)
	}
	if p.DepWindow < 1 {
		return fmt.Errorf("workload %q: DepWindow must be >= 1", p.Name)
	}
	if p.LoopLen < 4 {
		return fmt.Errorf("workload %q: LoopLen must be >= 4", p.Name)
	}
	if p.HotBytes == 0 || p.WarmBytes == 0 || p.ColdBytes == 0 {
		return fmt.Errorf("workload %q: memory regions must be non-empty", p.Name)
	}
	// Phase scale factors are applied mid-stream by phaseAt; the scaled
	// probabilities must stay in range for every phase, checked here
	// (phases are static) rather than clamped silently at generation
	// time.
	for i, ph := range p.Phases {
		if ph.Len == 0 {
			return fmt.Errorf("workload %q: phase %d has zero length", p.Name, i)
		}
		if math.IsNaN(ph.ColdScale) || math.IsInf(ph.ColdScale, 0) || ph.ColdScale < 0 {
			return fmt.Errorf("workload %q: phase %d ColdScale = %v must be finite and >= 0",
				p.Name, i, ph.ColdScale)
		}
		if math.IsNaN(ph.IlpScale) || math.IsInf(ph.IlpScale, 0) || ph.IlpScale < 0 {
			return fmt.Errorf("workload %q: phase %d IlpScale = %v must be finite and >= 0",
				p.Name, i, ph.IlpScale)
		}
		if pc := p.PCold * ph.ColdScale; pc > 1 {
			return fmt.Errorf("workload %q: phase %d scales PCold to %.3f > 1 (PCold=%v × ColdScale=%v)",
				p.Name, i, pc, p.PCold, ph.ColdScale)
		} else if pc+p.PWarm > 1 {
			return fmt.Errorf("workload %q: phase %d scaled PCold %.3f + PWarm %.3f > 1",
				p.Name, i, pc, p.PWarm)
		}
		if cf := p.ChainFrac * ph.IlpScale; cf > 1 {
			return fmt.Errorf("workload %q: phase %d scales ChainFrac to %.3f > 1 (ChainFrac=%v × IlpScale=%v)",
				p.Name, i, cf, p.ChainFrac, ph.IlpScale)
		}
	}
	return nil
}

// Generator expands a Profile into micro-ops. Safe for concurrent use
// (it is immutable after construction).
type Generator struct {
	prof Profile

	// Derived sub-seeds, one independent counter-mode stream per
	// decision dimension.
	kindSeed   uint64
	chainSeed  uint64
	depSeed    uint64
	regionSeed uint64
	addrSeed   uint64
	strideSeed uint64
	noiseSeed  uint64
	dirSeed    uint64
	siteSeed   uint64 // Sub(dirSeed, "site"), hoisted out of branchTaken

	// Cumulative mix thresholds, ordered as kindOrder.
	cdf [9]float64

	phaseTotal uint64 // sum of phase lengths (0 = no phases)

	// Address-space bases; threads get distinct bases via NewOffset.
	hotBase  uint64
	warmBase uint64
	coldBase uint64
	codeBase uint64
}

var kindOrder = [9]isa.Kind{
	isa.Load, isa.Store, isa.Branch, isa.Mul, isa.Div, isa.FAdd, isa.FMul, isa.FDiv, isa.Pause,
}

// NewOffset builds a Generator whose data and code regions are placed
// in a distinct address-space slot, so that multiple threads running
// the same profile do not share data (the paper's same-benchmark pairs
// are separate processes).
func NewOffset(prof Profile, slot int) *Generator {
	if err := prof.Validate(); err != nil {
		panic(err)
	}
	g := &Generator{
		prof:       prof,
		kindSeed:   rng.Sub(prof.Seed, "kind"),
		chainSeed:  rng.Sub(prof.Seed, "chain"),
		depSeed:    rng.Sub(prof.Seed, "dep"),
		regionSeed: rng.Sub(prof.Seed, "region"),
		addrSeed:   rng.Sub(prof.Seed, "addr"),
		strideSeed: rng.Sub(prof.Seed, "stride"),
		noiseSeed:  rng.Sub(prof.Seed, "noise"),
		dirSeed:    rng.Sub(prof.Seed, "dir"),
		siteSeed:   rng.Sub(rng.Sub(prof.Seed, "dir"), "site"),
	}
	fr := [9]float64{
		prof.FracLoad, prof.FracStore, prof.FracBranch, prof.FracMul,
		prof.FracDiv, prof.FracFAdd, prof.FracFMul, prof.FracFDiv,
		prof.FracPause,
	}
	acc := 0.0
	for i, f := range fr {
		acc += f
		g.cdf[i] = acc
	}
	for _, ph := range prof.Phases {
		g.phaseTotal += ph.Len
	}
	// 1 TiB per thread slot keeps regions disjoint without overlapping
	// the page-table tag bit (1<<46). Per-slot skews shift each
	// thread's code and data to different cache-set / predictor-index
	// alignments: the slot bit itself (1<<40) is masked out of every
	// set/table index, and without the skew co-scheduled threads would
	// alias onto exactly the same predictor entries and cache sets —
	// something unaligned real programs do not do.
	base := uint64(slot) << 40
	skew := uint64(slot) * 0x9E40 // 64-byte aligned, odd line count
	g.codeBase = base + 0x0000_1000 + uint64(slot)*0x5E6F4
	g.hotBase = base + 0x0100_0000 + skew
	g.warmBase = base + 0x1000_0000 + 3*skew
	g.coldBase = base + 0x40_0000_0000 + 7*skew
	return g
}

// Regions describes the generator's address-space layout, used by the
// simulator's functional cache warmup to bring the resident working
// set (hot + warm + code and their page-table entries) to steady state
// without executing tens of millions of instructions.
type Regions struct {
	HotBase, HotBytes   uint64
	WarmBase, WarmBytes uint64
	ColdBase, ColdBytes uint64
	CodeBase, CodeBytes uint64
}

// Regions returns the generator's address-space layout.
func (g *Generator) Regions() Regions {
	return Regions{
		HotBase: g.hotBase, HotBytes: g.prof.HotBytes,
		WarmBase: g.warmBase, WarmBytes: g.prof.WarmBytes,
		ColdBase: g.coldBase, ColdBytes: g.prof.ColdBytes,
		CodeBase: g.codeBase, CodeBytes: g.prof.LoopLen * 4,
	}
}

// phaseAt returns the effective PCold and ChainFrac at seq.
func (g *Generator) phaseAt(seq uint64) (pCold, chainFrac float64) {
	pCold, chainFrac = g.prof.PCold, g.prof.ChainFrac
	if g.phaseTotal == 0 {
		return pCold, chainFrac
	}
	pos := seq % g.phaseTotal
	for _, ph := range g.prof.Phases {
		if pos < ph.Len {
			// Validate guarantees the scaled values stay in [0, 1], so no
			// clamping happens here: an out-of-range phase is a
			// configuration error, not something to hide mid-stream.
			return pCold * ph.ColdScale, chainFrac * ph.IlpScale
		}
		pos -= ph.Len
	}
	return pCold, chainFrac
}

// kindAt picks the micro-op kind for seq.
func (g *Generator) kindAt(seq uint64) isa.Kind {
	u := rng.Float64At(g.kindSeed, seq)
	for i, th := range g.cdf {
		if u < th {
			return kindOrder[i]
		}
	}
	return isa.ALU
}

// destReg assigns destination registers in a rotating pattern so that
// "the op at distance d back" is addressable as a logical register for
// any d < NumRegs.
func destReg(seq uint64) isa.Reg { return isa.Reg(seq % isa.NumRegs) }

// srcFor picks a source register representing a dependence on an op
// roughly `dist` back in the stream.
func srcFor(seq uint64, dist int) isa.Reg {
	if uint64(dist) > seq {
		dist = int(seq)
	}
	if dist == 0 {
		return isa.RegNone
	}
	return destReg(seq - uint64(dist))
}

// coldEpochLen is the instruction count after which the scattered
// cold-access window slides; coldWindow bounds the window size. Real
// memory-bound programs touch large footprints with page-level
// temporal locality; drawing scattered addresses uniformly over the
// whole cold region would instead thrash the TLB page tables
// themselves (tens of thousands of live pages), which no real program
// does.
const (
	coldEpochLen = 200_000
	coldWindow   = 8 << 20
)

// addrFor computes the data address for a load/store at seq.
func (g *Generator) addrFor(seq uint64, pCold float64) uint64 {
	u := rng.Float64At(g.regionSeed, seq)
	switch {
	case u < pCold:
		if rng.Float64At(g.strideSeed, seq) < g.prof.StrideFrac {
			// Sequential walk through the cold region: 8 bytes per
			// access so 8 consecutive cold refs share a 64B line.
			return g.coldBase + (seq*8)%g.prof.ColdBytes
		}
		// Scattered within a sliding window of the cold region: the
		// long-run footprint spans the whole region, the instantaneous
		// page working set stays bounded.
		window := g.prof.ColdBytes
		if window > coldWindow {
			window = coldWindow
		}
		epoch := seq / coldEpochLen
		windowBase := (rng.Uint64At(g.addrSeed, ^epoch) % (g.prof.ColdBytes / 64)) * 64
		off := (rng.Uint64At(g.addrSeed, seq) % (window / 64)) * 64
		return g.coldBase + (windowBase+off)%g.prof.ColdBytes
	case u < pCold+g.prof.PWarm:
		off := rng.Uint64At(g.addrSeed, seq) % (g.prof.WarmBytes / 8)
		return g.warmBase + off*8
	default:
		off := rng.Uint64At(g.addrSeed, seq) % (g.prof.HotBytes / 8)
		return g.hotBase + off*8
	}
}

// pcFor returns the synthetic PC: the code is a loop of LoopLen
// 4-byte slots.
func (g *Generator) pcFor(seq uint64) uint64 {
	return g.codeBase + (seq%g.prof.LoopLen)*4
}

// branchTaken decides the architectural outcome of the branch at seq.
// Each site (loop slot) has a fixed bias direction; NoiseFrac of
// outcomes are random. The loop backedge (last slot) is always taken.
func (g *Generator) branchTaken(seq uint64) bool {
	slot := seq % g.prof.LoopLen
	if slot == g.prof.LoopLen-1 {
		return true
	}
	if rng.Float64At(g.noiseSeed, seq) < g.prof.NoiseFrac {
		return rng.Uint64At(g.dirSeed, seq)&1 == 0
	}
	// Per-site deterministic bias direction.
	return rng.Float64At(g.siteSeed, slot) < g.prof.TakenBias
}

// At returns the micro-op at position seq. It is a pure function.
func (g *Generator) At(seq uint64) isa.Uop {
	pCold, chainFrac := g.phaseAt(seq)
	kind := g.kindAt(seq)
	u := isa.Uop{Seq: seq, PC: g.pcFor(seq), Kind: kind}

	// The dependence-distance draws are positional (pure functions of
	// seq), so evaluating them lazily per kind changes no generated
	// value — it only skips hashes whose results the kind discards.
	switch kind {
	case isa.Load:
		u.Dst = destReg(seq)
		u.Src1 = srcFor(seq, g.dist1At(seq, chainFrac)) // address base register
		u.Src2 = isa.RegNone
		u.Addr = g.addrFor(seq, pCold)
		u.Size = 8
	case isa.Store:
		u.Dst = isa.RegNone
		u.Src1 = srcFor(seq, g.dist1At(seq, chainFrac)) // data
		u.Src2 = srcFor(seq, g.dist2At(seq))            // address
		u.Addr = g.addrFor(seq, pCold)
		u.Size = 8
	case isa.Pause:
		u.Dst = isa.RegNone
		u.Src1 = isa.RegNone
		u.Src2 = isa.RegNone
	case isa.Branch:
		u.Dst = isa.RegNone
		u.Src1 = srcFor(seq, g.dist1At(seq, chainFrac)) // condition
		u.Src2 = isa.RegNone
		u.Taken = g.branchTaken(seq)
		if u.Taken {
			// Taken branches jump within the loop; the backedge
			// returns to the top.
			u.Target = g.codeBase + ((seq+1)%g.prof.LoopLen)*4
		} else {
			u.Target = u.PC + 4
		}
	default:
		u.Dst = destReg(seq)
		u.Src1 = srcFor(seq, g.dist1At(seq, chainFrac))
		u.Src2 = srcFor(seq, g.dist2At(seq))
	}
	return u
}

// dist1At draws the first-source dependence distance at seq.
func (g *Generator) dist1At(seq uint64, chainFrac float64) int {
	if rng.Float64At(g.chainSeed, seq) < chainFrac {
		return 1
	}
	return 1 + rng.IntnAt(g.depSeed, seq, g.prof.DepWindow)
}

// dist2At draws the second-source dependence distance at seq.
func (g *Generator) dist2At(seq uint64) int {
	return 1 + rng.IntnAt(g.depSeed, ^seq, g.prof.DepWindow)
}

// Stream is a positioned cursor over a Generator, used by the pipeline
// front end. Seek supports post-squash rewind.
//
// Peek memoizes the micro-op at the cursor so a Peek-then-Next pair
// generates it once: the pipeline fetch stage peeks the group head for
// the icache/iTLB access, then consumes the group, and generation is a
// non-trivial fraction of busy-path time.
type Stream struct {
	gen  *Generator
	next uint64

	memo    isa.Uop
	memoSeq uint64
	hasMemo bool
}

// NewStream returns a Stream over g starting at position start.
func NewStream(g *Generator, start uint64) *Stream {
	return &Stream{gen: g, next: start}
}

// Next returns the next micro-op and advances the cursor.
func (s *Stream) Next() isa.Uop {
	if s.hasMemo && s.memoSeq == s.next {
		s.next++
		s.hasMemo = false
		return s.memo
	}
	u := s.gen.At(s.next)
	s.next++
	return u
}

// Peek returns the micro-op the next call to Next will produce,
// without advancing the cursor.
func (s *Stream) Peek() isa.Uop {
	if !s.hasMemo || s.memoSeq != s.next {
		s.memo = s.gen.At(s.next)
		s.memoSeq = s.next
		s.hasMemo = true
	}
	return s.memo
}

// Pos returns the sequence number the next call to Next will produce.
func (s *Stream) Pos() uint64 { return s.next }

// Seek repositions the cursor.
func (s *Stream) Seek(seq uint64) { s.next = seq }

// CopyFrom repositions s exactly like src, memoized micro-op included.
// s keeps its own generator, which must expand the same profile in the
// same slot.
func (s *Stream) CopyFrom(src *Stream) {
	s.next = src.next
	s.memo, s.memoSeq, s.hasMemo = src.memo, src.memoSeq, src.hasMemo
}

// Names returns the sorted list of built-in profile names.
func Names() []string {
	names := make([]string, 0, len(profiles))
	for n := range profiles {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ByName returns the built-in profile with the given name.
func ByName(name string) (Profile, bool) {
	p, ok := profiles[name]
	return p, ok
}

// MustByName returns the built-in profile or panics — for use in
// experiment tables where a missing name is a programming error.
func MustByName(name string) Profile {
	p, ok := profiles[name]
	if !ok {
		panic(fmt.Sprintf("workload: unknown profile %q", name))
	}
	return p
}
