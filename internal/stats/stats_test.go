package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if !almost(Mean([]float64{1, 2, 3}), 2) {
		t.Error("mean of 1,2,3 should be 2")
	}
	if Mean(nil) != 0 {
		t.Error("mean of empty should be 0")
	}
}

func TestStdDev(t *testing.T) {
	if !almost(StdDev([]float64{2, 2, 2}), 0) {
		t.Error("stddev of constant should be 0")
	}
	// Population stddev of {1,3} is 1.
	if !almost(StdDev([]float64{1, 3}), 1) {
		t.Error("stddev of {1,3} should be 1")
	}
	if StdDev(nil) != 0 {
		t.Error("stddev of empty should be 0")
	}
}

func TestHarmonicMean(t *testing.T) {
	// HM of {1, 1/3} = 2 / (1 + 3) = 0.5.
	if !almost(HarmonicMean([]float64{1, 1.0 / 3}), 0.5) {
		t.Error("harmonic mean of {1, 1/3} should be 0.5")
	}
	if HarmonicMean([]float64{-1, 2}) != 0 {
		t.Error("harmonic mean with non-positive value should be 0")
	}
}

func TestHarmonicLeqArith(t *testing.T) {
	f := func(a, b, c uint16) bool {
		xs := []float64{float64(a) + 1, float64(b) + 1, float64(c) + 1}
		return HarmonicMean(xs) <= Mean(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7}
	if Min(xs) != -1 {
		t.Error("min wrong")
	}
	if !math.IsInf(Min(nil), 1) {
		t.Error("empty min should be +Inf")
	}
}

func TestCountersArithmetic(t *testing.T) {
	a := Counters{Instrs: 10, Cycles: 20, Misses: 2}
	b := Counters{Instrs: 1, Cycles: 2, Misses: 1}
	a.Add(b)
	if a.Instrs != 11 || a.Cycles != 22 || a.Misses != 3 {
		t.Fatalf("Add wrong: %v", a)
	}
	d := a.Sub(b)
	if d.Instrs != 10 || d.Cycles != 20 || d.Misses != 2 {
		t.Fatalf("Sub wrong: %v", d)
	}
}

func TestCountersRates(t *testing.T) {
	c := Counters{Instrs: 15000, Cycles: 6000, Misses: 1}
	if !almost(c.IPM(), 15000) {
		t.Error("IPM wrong")
	}
	if !almost(c.CPM(), 6000) {
		t.Error("CPM wrong")
	}
	if !almost(c.IPC(), 2.5) {
		t.Error("IPC wrong")
	}
	// Eq. 13 on the paper's Example 2 thread 1: 15000/(6000+300) = 2.381.
	if got := c.EstIPCST(300); math.Abs(got-15000.0/6300) > 1e-9 {
		t.Errorf("EstIPCST = %v", got)
	}
}

func TestCountersZeroMissClamp(t *testing.T) {
	// The paper specifies max(Misses,1) in Eqs. 11-12 so a window with
	// no misses still produces a finite (conservative) estimate.
	c := Counters{Instrs: 1000, Cycles: 500, Misses: 0}
	if !almost(c.IPM(), 1000) || !almost(c.CPM(), 500) {
		t.Error("zero-miss clamp broken")
	}
	if c.IPC() != 2 {
		t.Error("IPC with zero misses")
	}
	var empty Counters
	if empty.IPC() != 0 {
		t.Error("IPC of zero counters should be 0")
	}
}

func TestWindowSampling(t *testing.T) {
	var w Window
	w.Totals.Add(Counters{Instrs: 100, Cycles: 200, Misses: 3})
	d := w.Sample()
	if d.Instrs != 100 || d.Cycles != 200 || d.Misses != 3 {
		t.Fatalf("first sample wrong: %v", d)
	}
	w.Totals.Add(Counters{Instrs: 50, Cycles: 60, Misses: 1})
	d = w.Sample()
	if d.Instrs != 50 || d.Cycles != 60 || d.Misses != 1 {
		t.Fatalf("second sample wrong: %v", d)
	}
	if d = w.Sample(); d != (Counters{}) {
		t.Fatalf("idle sample should be zero: %v", d)
	}
}
