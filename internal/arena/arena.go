// Package arena provides a typed recycle arena for the simulator's
// per-run machine state.
//
// A sim run constructs a full machine (pipeline rings, cache arrays,
// TLBs, predictor tables) and discards it at the end; at service rates
// that is the dominant allocation source. An Arena lends out slices
// and, on Reset, takes them all back into per-type free lists so the
// next run's construction reuses the same memory — after warmup a run
// performs O(1) heap allocations for machine state.
//
// The contract is ownership-based, not lifetime-tracked: callers must
// not touch any slice obtained from an arena after that arena is
// Reset. The simulator guarantees this by tying one arena to one
// RunContext and resetting it only after the run's machine becomes
// unreachable. Results and samples that outlive the run are never
// arena-backed.
//
// An Arena is not safe for concurrent use; each RunContext takes its
// own from a pool.
package arena

import "reflect"

// Arena hands out zeroed slices and recycles them on Reset.
type Arena struct {
	used []any                  // slices handed out since the last Reset
	free map[reflect.Type][]any // recycled slices, keyed by slice type
}

// New returns an empty arena.
func New() *Arena {
	return &Arena{free: make(map[reflect.Type][]any)}
}

// Reset reclaims every slice handed out since the previous Reset.
// Callers must have dropped all references to them first.
func (a *Arena) Reset() {
	for i, s := range a.used {
		t := reflect.TypeOf(s)
		a.free[t] = append(a.free[t], s)
		a.used[i] = nil
	}
	a.used = a.used[:0]
}

// Slice returns a zeroed slice of length n, recycled from a's free
// list when one with sufficient capacity is available. A nil arena
// degrades to a plain heap allocation, so construction code can thread
// an optional arena without branching.
//
// Recycling is best fit: the free slice with the smallest capacity
// that holds n. First fit would let a small request (an L1's tag
// array) take a large free slice (the L2's), forcing the large request
// to allocate a second one, so every arena would grow to hold nearly
// two machines (pinned by TestMachineShapedRequestsHoldOneMachine).
//
// The tracked value is always the full-capacity slice, boxed into an
// interface exactly once at first allocation: recycling moves the same
// boxed header between used and free, so steady-state handouts perform
// zero heap allocations (pinned by TestSteadyStateAllocFree).
func Slice[T any](a *Arena, n int) []T {
	if a == nil {
		return make([]T, n)
	}
	t := reflect.TypeOf((*[]T)(nil)).Elem()
	list := a.free[t]
	best := -1
	for i, box := range list {
		c := cap(box.([]T))
		if c >= n && (best < 0 || c < cap(list[best].([]T))) {
			best = i
		}
	}
	if best >= 0 {
		box := list[best]
		list[best] = list[len(list)-1]
		list[len(list)-1] = nil
		a.free[t] = list[:len(list)-1]
		a.used = append(a.used, box)
		out := box.([]T)[:n]
		clear(out)
		return out
	}
	s := make([]T, n)
	a.used = append(a.used, any(s[:cap(s)]))
	return s
}
