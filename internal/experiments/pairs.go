// Package experiments reproduces every table and figure of the
// paper's evaluation (see DESIGN.md §4 for the experiment index):
//
//	Example 1 / Figure 1 — starvation demonstration
//	Table 2 / Example 2  — analytical two-thread case
//	Figure 3             — analytical throughput-vs-F sweep
//	Figure 5             — gcc:eon time series (estimation, speedups, fairness)
//	Figure 6             — throughput of all pairs at F = 0, 1/4, 1/2, 1
//	Figure 7             — throughput degradation + forced switch rate
//	Figure 8             — achieved fairness per run and truncated averages
//	Table 3              — machine configuration
//	§6 time sharing      — quota-based time sharing vs the mechanism
package experiments

import (
	"fmt"
	"strings"

	"soemt/internal/sim"
	"soemt/internal/workload"
)

// Pair is one two-thread benchmark combination.
type Pair struct {
	A, B string
}

// Name returns the paper-style "a:b" label.
func (p Pair) Name() string { return p.A + ":" + p.B }

// Same reports whether both threads run the same benchmark.
func (p Pair) Same() bool { return p.A == p.B }

// ParsePair resolves an "a:b" label into a Pair of built-in profiles.
func ParsePair(s string) (Pair, error) {
	a, b, ok := strings.Cut(s, ":")
	if !ok {
		return Pair{}, fmt.Errorf("pair must be a:b, got %q", s)
	}
	for _, n := range []string{a, b} {
		if _, ok := workload.ByName(n); !ok {
			return Pair{}, fmt.Errorf("unknown profile %q", n)
		}
	}
	return Pair{A: a, B: b}, nil
}

// Threads places the pair: A in slot 0, B in slot 1, and for a
// same-benchmark pair B starts sameOffset instructions in.
func (p Pair) Threads(sameOffset uint64) []sim.ThreadSpec {
	ts := []sim.ThreadSpec{
		{Profile: workload.MustByName(p.A), Slot: 0},
		{Profile: workload.MustByName(p.B), Slot: 1},
	}
	if p.Same() {
		ts[1].StartSeq = sameOffset
	}
	return ts
}

// Pairs returns the 16 benchmark combinations used throughout the
// evaluation — 8 same-benchmark pairs and 8 mixed pairs, mirroring the
// paper's §4.1 setup (which names gcc:eon, galgel:gcc, apsi:swim,
// lucas:applu, bzip2:bzip2, gcc:gcc and mgrid:mgrid among its 16).
func Pairs() []Pair {
	return []Pair{
		// Same-benchmark pairs (offset by 1M instructions at paper scale).
		{"gcc", "gcc"},
		{"eon", "eon"},
		{"bzip2", "bzip2"},
		{"mgrid", "mgrid"},
		{"swim", "swim"},
		{"mcf", "mcf"},
		{"gzip", "gzip"},
		{"twolf", "twolf"},
		// Mixed pairs. The first four are named in the paper; the rest
		// pair memory-bound with compute-bound profiles so the F=0
		// starvation spectrum matches the paper's ("over a third" of
		// runs leave one thread 10-100x slower).
		{"gcc", "eon"},
		{"galgel", "gcc"},
		{"apsi", "swim"},
		{"lucas", "applu"},
		{"mcf", "galgel"},
		{"art", "gzip"},
		{"swim", "gzip"},
		{"equake", "eon"},
	}
}
