// Package branch implements the branch-prediction structures of the
// simulated core: two-bit bimodal tables, a gshare predictor, a
// tournament combination, a branch target buffer, and a return address
// stack.
//
// As in the paper's machine (Section 4.1), predictor state is shared
// between SOE threads and is NOT flushed on a thread switch — sharing
// is required to maintain performance after switches, and it is one of
// the resource-sharing effects that make the estimated single-thread
// IPC slightly lower than the real one (Section 5.1.1).
package branch

import "fmt"

// Direction predictors ----------------------------------------------------

// Predictor predicts conditional branch directions and learns from
// resolved outcomes.
type Predictor interface {
	// Predict returns the predicted direction for the branch at pc.
	Predict(pc uint64) bool
	// Update trains the predictor with the architectural outcome.
	Update(pc uint64, taken bool)
}

// counter2 is a saturating 2-bit counter: 0,1 predict not-taken; 2,3
// predict taken.
type counter2 uint8

func (c counter2) taken() bool { return c >= 2 }

func (c counter2) train(taken bool) counter2 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// Bimodal is a classic PC-indexed table of 2-bit counters.
type Bimodal struct {
	table []counter2
	mask  uint64
}

// NewBimodal creates a bimodal predictor with the given number of
// entries (rounded up to a power of two, minimum 16). Counters start
// weakly taken, which converges fastest for loop-heavy code.
func NewBimodal(entries int) *Bimodal {
	n := pow2(entries)
	t := make([]counter2, n)
	for i := range t {
		t[i] = 2
	}
	return &Bimodal{table: t, mask: uint64(n - 1)}
}

func (b *Bimodal) index(pc uint64) uint64 { return (pc >> 2) & b.mask }

// Predict implements Predictor.
func (b *Bimodal) Predict(pc uint64) bool { return b.table[b.index(pc)].taken() }

// Update implements Predictor.
func (b *Bimodal) Update(pc uint64, taken bool) {
	i := b.index(pc)
	b.table[i] = b.table[i].train(taken)
}

// Gshare XORs a global history register with the PC to index its
// counter table, capturing correlated branches.
type Gshare struct {
	table   []counter2
	mask    uint64
	history uint64
	histLen uint
}

// NewGshare creates a gshare predictor with the given number of table
// entries (rounded up to a power of two, minimum 16) and history
// length in bits (clamped to the table index width).
func NewGshare(entries int, historyBits uint) *Gshare {
	n := pow2(entries)
	bits := uint(0)
	for 1<<bits < n {
		bits++
	}
	if historyBits > bits {
		historyBits = bits
	}
	t := make([]counter2, n)
	for i := range t {
		t[i] = 2
	}
	return &Gshare{table: t, mask: uint64(n - 1), histLen: historyBits}
}

func (g *Gshare) index(pc uint64) uint64 {
	return ((pc >> 2) ^ g.history) & g.mask
}

// Predict implements Predictor.
func (g *Gshare) Predict(pc uint64) bool { return g.table[g.index(pc)].taken() }

// Update implements Predictor. It trains the indexed counter with the
// pre-update history, then shifts the outcome into the history.
func (g *Gshare) Update(pc uint64, taken bool) {
	i := g.index(pc)
	g.table[i] = g.table[i].train(taken)
	g.history <<= 1
	if taken {
		g.history |= 1
	}
	g.history &= (1 << g.histLen) - 1
}

// Tournament selects between a bimodal and a gshare component with a
// table of 2-bit chooser counters (Alpha 21264 style).
type Tournament struct {
	local   *Bimodal
	global  *Gshare
	chooser []counter2 // taken() == true means "use global"
	mask    uint64
}

// NewTournament creates a tournament predictor; entries sizes all three
// tables.
func NewTournament(entries int, historyBits uint) *Tournament {
	n := pow2(entries)
	ch := make([]counter2, n)
	for i := range ch {
		ch[i] = 2
	}
	return &Tournament{
		local:   NewBimodal(n),
		global:  NewGshare(n, historyBits),
		chooser: ch,
		mask:    uint64(n - 1),
	}
}

// Predict implements Predictor.
func (t *Tournament) Predict(pc uint64) bool {
	if t.chooser[(pc>>2)&t.mask].taken() {
		return t.global.Predict(pc)
	}
	return t.local.Predict(pc)
}

// Update implements Predictor: the chooser trains toward whichever
// component was correct (when they disagree), then both components
// train.
func (t *Tournament) Update(pc uint64, taken bool) {
	lp := t.local.Predict(pc)
	gp := t.global.Predict(pc)
	if lp != gp {
		i := (pc >> 2) & t.mask
		t.chooser[i] = t.chooser[i].train(gp == taken)
	}
	t.local.Update(pc, taken)
	t.global.Update(pc, taken)
}

// Target prediction -------------------------------------------------------

// BTB is a direct-mapped branch target buffer with partial tags.
type BTB struct {
	tags    []uint64
	targets []uint64
	valid   []bool
	mask    uint64
}

// NewBTB creates a BTB with the given number of entries (rounded up to
// a power of two, minimum 16).
func NewBTB(entries int) *BTB {
	n := pow2(entries)
	return &BTB{
		tags:    make([]uint64, n),
		targets: make([]uint64, n),
		valid:   make([]bool, n),
		mask:    uint64(n - 1),
	}
}

func (b *BTB) index(pc uint64) uint64 { return (pc >> 2) & b.mask }

// Lookup returns the predicted target for pc and whether the BTB hit.
func (b *BTB) Lookup(pc uint64) (uint64, bool) {
	i := b.index(pc)
	if b.valid[i] && b.tags[i] == pc {
		return b.targets[i], true
	}
	return 0, false
}

// Insert records (or replaces) the target for pc.
func (b *BTB) Insert(pc, target uint64) {
	i := b.index(pc)
	b.tags[i] = pc
	b.targets[i] = target
	b.valid[i] = true
}

// RAS is a circular return-address stack.
type RAS struct {
	stack []uint64
	top   int
	depth int
}

// NewRAS creates a return-address stack with the given capacity
// (minimum 1).
func NewRAS(capacity int) *RAS {
	if capacity < 1 {
		capacity = 1
	}
	return &RAS{stack: make([]uint64, capacity)}
}

// Push records a return address (on a call).
func (r *RAS) Push(addr uint64) {
	r.top = (r.top + 1) % len(r.stack)
	r.stack[r.top] = addr
	if r.depth < len(r.stack) {
		r.depth++
	}
}

// Pop predicts the return address (on a return). ok is false when the
// stack is empty.
func (r *RAS) Pop() (addr uint64, ok bool) {
	if r.depth == 0 {
		return 0, false
	}
	addr = r.stack[r.top]
	r.top = (r.top - 1 + len(r.stack)) % len(r.stack)
	r.depth--
	return addr, true
}

// Unit bundles the direction predictor, BTB and RAS into the front-end
// branch unit used by the pipeline, and tracks accuracy statistics.
type Unit struct {
	Dir Predictor
	BTB *BTB
	RAS *RAS

	Lookups     uint64 // conditional-branch predictions made
	Mispredicts uint64 // direction mispredictions
}

// NewUnit builds the default branch unit: a tournament direction
// predictor, BTB and RAS sized per DESIGN.md.
func NewUnit(entries, btbEntries, rasDepth int, historyBits uint) *Unit {
	return &Unit{
		Dir: NewTournament(entries, historyBits),
		BTB: NewBTB(btbEntries),
		RAS: NewRAS(rasDepth),
	}
}

// PredictDirection predicts the branch at pc and counts the lookup.
func (u *Unit) PredictDirection(pc uint64) bool {
	u.Lookups++
	return u.Dir.Predict(pc)
}

// Resolve trains the unit with an architectural outcome and counts
// mispredictions against the direction prediction made at fetch.
func (u *Unit) Resolve(pc uint64, predicted, taken bool, target uint64) {
	if predicted != taken {
		u.Mispredicts++
	}
	u.Dir.Update(pc, taken)
	if taken {
		u.BTB.Insert(pc, target)
	}
}

// CopyFrom overwrites u's predictor tables, BTB, RAS and statistics
// with src's. Both units must be built by NewUnit with the same sizes;
// a unit whose direction predictor was replaced is a programming error
// and panics.
func (u *Unit) CopyFrom(src *Unit) {
	dir, ok := u.Dir.(*Tournament)
	if !ok {
		panic(fmt.Sprintf("branch: CopyFrom: unsupported direction predictor %T", u.Dir))
	}
	dir.copyFrom(src.Dir.(*Tournament))
	copy(u.BTB.tags, src.BTB.tags)
	copy(u.BTB.targets, src.BTB.targets)
	copy(u.BTB.valid, src.BTB.valid)
	copy(u.RAS.stack, src.RAS.stack)
	u.RAS.top, u.RAS.depth = src.RAS.top, src.RAS.depth
	u.Lookups, u.Mispredicts = src.Lookups, src.Mispredicts
}

func (b *Bimodal) copyFrom(src *Bimodal) { copy(b.table, src.table) }

func (g *Gshare) copyFrom(src *Gshare) {
	copy(g.table, src.table)
	g.history = src.history
}

func (t *Tournament) copyFrom(src *Tournament) {
	t.local.copyFrom(src.local)
	t.global.copyFrom(src.global)
	copy(t.chooser, src.chooser)
}

// MispredictRate returns the fraction of direction predictions that
// were wrong.
func (u *Unit) MispredictRate() float64 {
	if u.Lookups == 0 {
		return 0
	}
	return float64(u.Mispredicts) / float64(u.Lookups)
}

// pow2 rounds n up to a power of two with a floor of 16.
func pow2(n int) int {
	if n < 16 {
		n = 16
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
