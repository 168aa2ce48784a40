package arena

import (
	"reflect"
	"testing"
)

// TestNilArenaDegradesToMake pins the optional-arena contract: a nil
// receiver must behave exactly like make([]T, n).
func TestNilArenaDegradesToMake(t *testing.T) {
	s := Slice[uint64](nil, 7)
	if len(s) != 7 {
		t.Fatalf("len = %d, want 7", len(s))
	}
	for i, v := range s {
		if v != 0 {
			t.Fatalf("s[%d] = %d, want 0", i, v)
		}
	}
	if s := Slice[uint64](nil, 0); len(s) != 0 {
		t.Fatalf("zero-length slice has len %d", len(s))
	}
}

// TestRecycleReusesBacking asserts that after Reset a same-type,
// capacity-sufficient request is served from the recycled backing
// array (no fresh allocation) and arrives zeroed even when the
// previous user left data behind.
func TestRecycleReusesBacking(t *testing.T) {
	a := New()
	s1 := Slice[uint64](a, 64)
	for i := range s1 {
		s1[i] = ^uint64(0) // dirty the backing
	}
	p1 := &s1[0]
	a.Reset()

	s2 := Slice[uint64](a, 32) // smaller fits the recycled cap
	if &s2[0] != p1 {
		t.Fatalf("recycled request did not reuse the backing array")
	}
	for i, v := range s2 {
		if v != 0 {
			t.Fatalf("recycled s2[%d] = %#x, want 0 (stale data leaked)", i, v)
		}
	}

	// A larger request must fall through to a fresh allocation.
	s3 := Slice[uint64](a, 128)
	if len(s3) != 128 {
		t.Fatalf("len(s3) = %d, want 128", len(s3))
	}
}

// TestTypesDoNotCrossPollinate asserts the free lists are keyed by
// element type: recycling []uint64 must not serve a []int32 request.
func TestTypesDoNotCrossPollinate(t *testing.T) {
	a := New()
	Slice[uint64](a, 16)
	a.Reset()
	s := Slice[int32](a, 8)
	if len(s) != 8 {
		t.Fatalf("len = %d, want 8", len(s))
	}
	for i, v := range s {
		if v != 0 {
			t.Fatalf("s[%d] = %d, want 0", i, v)
		}
	}
}

// TestSteadyStateAllocFree asserts the arena's core promise: once
// warmed, a Reset/rebuild cycle of the same slice shapes performs no
// heap allocations for the slices themselves.
func TestSteadyStateAllocFree(t *testing.T) {
	a := New()
	build := func() {
		Slice[uint64](a, 256)
		Slice[uint8](a, 64)
		Slice[int32](a, 64)
	}
	build()
	a.Reset()
	allocs := testing.AllocsPerRun(100, func() {
		build()
		a.Reset()
	})
	if allocs > 0 {
		t.Fatalf("steady-state rebuild allocates %.1f objects/run, want 0", allocs)
	}
}

// held sums the capacity, in elements, of every slice a tracks (handed
// out or free).
func held(a *Arena) int {
	n := 0
	for _, box := range a.used {
		n += reflect.ValueOf(box).Cap()
	}
	for _, list := range a.free {
		for _, box := range list {
			n += reflect.ValueOf(box).Cap()
		}
	}
	return n
}

// TestMachineShapedRequestsHoldOneMachine pins best-fit recycling: a
// run requests an L1I, an L1D and an L2 tag array of one element type
// (1,024, 1,024 and 32,768 lines in the default machine). Repeating
// that request set after every Reset must keep exactly one machine's
// worth of backing; first fit handed the L2's slice to the L1I and
// grew the arena by a second L2 array.
func TestMachineShapedRequestsHoldOneMachine(t *testing.T) {
	shapes := []int{1024, 1024, 32768}
	want := 0
	for _, n := range shapes {
		want += n
	}
	a := New()
	for run := 0; run < 4; run++ {
		for _, n := range shapes {
			if s := Slice[uint64](a, n); len(s) != n {
				t.Fatalf("run %d: len = %d, want %d", run, len(s), n)
			}
		}
		if got := held(a); got != want {
			t.Fatalf("run %d: arena holds %d elements, want exactly %d (one machine)", run, got, want)
		}
		a.Reset()
	}
}
