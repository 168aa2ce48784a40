package branch

import (
	"testing"
	"testing/quick"

	"soemt/internal/rng"
)

func TestCounter2Saturation(t *testing.T) {
	c := counter2(0)
	c = c.train(false)
	if c != 0 {
		t.Error("counter must saturate at 0")
	}
	for i := 0; i < 10; i++ {
		c = c.train(true)
	}
	if c != 3 {
		t.Errorf("counter must saturate at 3, got %d", c)
	}
	if !c.taken() {
		t.Error("3 must predict taken")
	}
	c = c.train(false)
	c = c.train(false)
	if c.taken() {
		t.Error("1 must predict not-taken")
	}
}

func TestBimodalLearnsBias(t *testing.T) {
	b := NewBimodal(1024)
	pc := uint64(0x400)
	for i := 0; i < 8; i++ {
		b.Update(pc, false)
	}
	if b.Predict(pc) {
		t.Error("bimodal failed to learn always-not-taken")
	}
	for i := 0; i < 8; i++ {
		b.Update(pc, true)
	}
	if !b.Predict(pc) {
		t.Error("bimodal failed to learn always-taken")
	}
}

func TestBimodalHighAccuracyOnBiasedStream(t *testing.T) {
	b := NewBimodal(4096)
	wrong := 0
	const n = 20000
	for i := 0; i < n; i++ {
		pc := uint64(0x1000 + (i%32)*4)
		taken := (i % 32) < 24 // per-PC constant direction
		if b.Predict(pc) != taken {
			wrong++
		}
		b.Update(pc, taken)
	}
	if rate := float64(wrong) / n; rate > 0.01 {
		t.Errorf("bimodal mispredict rate %.3f on trivially biased stream", rate)
	}
}

func TestGshareLearnsPattern(t *testing.T) {
	// A period-2 alternating branch is unpredictable for bimodal but
	// trivial for gshare once history warms up.
	g := NewGshare(4096, 12)
	pc := uint64(0x2000)
	wrong := 0
	for i := 0; i < 2000; i++ {
		taken := i%2 == 0
		if i >= 200 && g.Predict(pc) != taken {
			wrong++
		}
		g.Update(pc, taken)
	}
	if wrong > 20 {
		t.Errorf("gshare failed to learn alternating pattern: %d wrong", wrong)
	}
}

func TestGshareHistoryMasked(t *testing.T) {
	g := NewGshare(64, 60) // history longer than index must be clamped
	for i := 0; i < 1000; i++ {
		g.Update(uint64(i*4), i%3 == 0)
	}
	if g.history >= 1<<g.histLen {
		t.Error("history exceeded its mask")
	}
}

func TestTournamentBeatsWorstComponent(t *testing.T) {
	// Mix of per-PC biased branches (bimodal-friendly) and one
	// alternating branch (gshare-friendly); tournament should handle
	// both once trained.
	tp := NewTournament(4096, 12)
	wrong := 0
	const n = 30000
	for i := 0; i < n; i++ {
		var pc uint64
		var taken bool
		if i%4 == 0 {
			pc = 0x9000
			taken = (i/4)%2 == 0 // alternating
		} else {
			pc = uint64(0x100 + (i%8)*4)
			taken = true // biased
		}
		if i > n/10 && tp.Predict(pc) != taken {
			wrong++
		}
		tp.Update(pc, taken)
	}
	if rate := float64(wrong) / float64(n); rate > 0.05 {
		t.Errorf("tournament mispredict rate %.3f", rate)
	}
}

func TestBTB(t *testing.T) {
	b := NewBTB(256)
	if _, ok := b.Lookup(0x400); ok {
		t.Error("empty BTB must miss")
	}
	b.Insert(0x400, 0x800)
	if tgt, ok := b.Lookup(0x400); !ok || tgt != 0x800 {
		t.Errorf("BTB lookup = %#x, %v", tgt, ok)
	}
	// Conflicting PC mapping to same set with different tag must miss.
	conflict := 0x400 + uint64(256*4)
	if _, ok := b.Lookup(conflict); ok {
		t.Error("tag mismatch must miss")
	}
	b.Insert(conflict, 0xc00)
	if _, ok := b.Lookup(0x400); ok {
		t.Error("replaced entry must miss")
	}
}

func TestUnitAccuracyTracking(t *testing.T) {
	u := NewUnit(1024, 256, 8, 10)
	pc := uint64(0x500)
	pred := u.PredictDirection(pc)
	u.Resolve(pc, !pred, pred, 0x600) // predicted wrong, actual outcome = pred
	if u.Lookups != 1 || u.Mispredicts != 1 {
		t.Fatalf("lookups=%d mispredicts=%d", u.Lookups, u.Mispredicts)
	}
	if u.MispredictRate() != 1 {
		t.Fatal("rate should be 1")
	}
	if tgt, ok := u.BTB.Lookup(pc); !ok || tgt != 0x600 {
		t.Error("Resolve must insert taken targets into BTB")
	}
	var empty Unit
	if empty.MispredictRate() != 0 {
		t.Error("zero lookups rate should be 0")
	}
}

func TestPredictorsNeverPanicOnArbitraryPC(t *testing.T) {
	b := NewBimodal(128)
	g := NewGshare(128, 8)
	tp := NewTournament(128, 8)
	f := func(pc uint64, taken bool) bool {
		b.Predict(pc)
		b.Update(pc, taken)
		g.Predict(pc)
		g.Update(pc, taken)
		tp.Predict(pc)
		tp.Update(pc, taken)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPow2(t *testing.T) {
	cases := map[int]int{0: 16, 15: 16, 16: 16, 17: 32, 1000: 1024}
	for in, want := range cases {
		if got := pow2(in); got != want {
			t.Errorf("pow2(%d) = %d, want %d", in, got, want)
		}
	}
}

// A randomized stream should yield ~50% accuracy — sanity ceiling check
// that the predictor is not accidentally cheating via state leakage.
func TestGshareRandomStreamNearChance(t *testing.T) {
	g := NewGshare(4096, 12)
	s := rng.NewStream(11)
	wrong := 0
	const n = 50000
	for i := 0; i < n; i++ {
		pc := uint64(0x100 + s.Intn(64)*4)
		taken := s.Float64() < 0.5
		if g.Predict(pc) != taken {
			wrong++
		}
		g.Update(pc, taken)
	}
	rate := float64(wrong) / n
	if rate < 0.40 || rate > 0.60 {
		t.Errorf("random-stream mispredict rate %.3f, want ~0.5", rate)
	}
}
