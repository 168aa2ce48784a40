// Package stats provides the counters and summary statistics used by
// the simulator and the experiment harnesses.
//
// The paper's fairness mechanism is driven entirely by per-thread
// hardware counters sampled on a fixed period Δ; Window models exactly
// that sample-and-reset behaviour.
package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// HarmonicMean returns the harmonic mean of xs (used by the Luo et al.
// fairness metric the paper compares against). Non-positive values make
// the result 0.
func HarmonicMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += 1 / x
	}
	return float64(len(xs)) / s
}

// Min returns the minimum of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// MinPairRatio is the N-thread fairness metric (paper Eq. 4,
// generalized): the minimum over all thread pairs (j, k) of the ratio
// speedup_j / speedup_k. Because every pairwise ratio lo/hi with
// lo ≤ hi is minimized by the global extremes, the min over all pairs
// equals min(xs) / max(xs) — O(n), not O(n²). Conventions shared by
// core.FairnessMetric and the analytical model:
//
//   - fewer than two values: 1 (a lone thread is trivially fair);
//   - any non-positive or non-finite value: 0 (a starved or degenerate
//     thread is maximally unfair, and NaN must never escape to JSON).
func MinPairRatio(xs []float64) float64 {
	if len(xs) < 2 {
		return 1
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) || x <= 0 {
			return 0
		}
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo / hi
}

// Counters is the per-thread hardware-counter block from Section 3.1 of
// the paper: retired instructions, running cycles (excluding switch
// overhead), and switch-causing last-level cache misses.
type Counters struct {
	Instrs uint64 // instructions retired
	Cycles uint64 // cycles the thread was actually running
	Misses uint64 // L2 misses that caused (or would cause) a stall/switch
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.Instrs += other.Instrs
	c.Cycles += other.Cycles
	c.Misses += other.Misses
}

// Sub returns c - other, for computing per-window deltas from running
// totals.
func (c Counters) Sub(other Counters) Counters {
	return Counters{
		Instrs: c.Instrs - other.Instrs,
		Cycles: c.Cycles - other.Cycles,
		Misses: c.Misses - other.Misses,
	}
}

// IPM returns instructions per miss (Eq. 11): Instrs / max(Misses, 1).
func (c Counters) IPM() float64 {
	return float64(c.Instrs) / float64(maxU64(c.Misses, 1))
}

// CPM returns cycles per miss (Eq. 12): Cycles / max(Misses, 1).
func (c Counters) CPM() float64 {
	return float64(c.Cycles) / float64(maxU64(c.Misses, 1))
}

// IPC returns the realized instructions per running cycle.
func (c Counters) IPC() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.Instrs) / float64(c.Cycles)
}

// EstIPCST estimates the thread's single-thread IPC (Eq. 13):
// IPM / (CPM + missLat). A non-positive denominator (a thread that
// never ran, with missLat 0) yields 0, never NaN/Inf.
func (c Counters) EstIPCST(missLat float64) float64 {
	den := c.CPM() + missLat
	if den <= 0 {
		return 0
	}
	return c.IPM() / den
}

func (c Counters) String() string {
	return fmt.Sprintf("{instrs=%d cycles=%d misses=%d}", c.Instrs, c.Cycles, c.Misses)
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// Window implements Δ-cycle sampling: Totals accumulate forever, and
// Sample returns the delta since the previous sample.
type Window struct {
	Totals Counters
	last   Counters
}

// Sample returns the counter deltas accumulated since the previous call
// (or since creation) and marks the new sampling point.
func (w *Window) Sample() Counters {
	d := w.Totals.Sub(w.last)
	w.last = w.Totals
	return d
}
