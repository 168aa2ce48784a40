package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	c.Add(3)
	c.Inc()
	g.Set(7)
	g.Add(-2)
	if c.Load() != 0 || g.Load() != 0 {
		t.Fatalf("nil instruments must read 0, got counter=%d gauge=%d", c.Load(), g.Load())
	}
	if c.Name() != "" || g.Name() != "" {
		t.Fatalf("nil instruments must have empty names")
	}
	if r.Snapshot() != nil {
		t.Fatalf("nil registry snapshot must be nil")
	}

	var tr *Tracer
	tr.Record(Event{Kind: KindSwitch})
	if tr.Len() != 0 || tr.Events() != nil || tr.Dropped() != 0 {
		t.Fatalf("nil tracer must be disabled and empty")
	}

	var o *Observer
	if o.Tracer() != nil || o.Registry() != nil {
		t.Fatalf("nil observer accessors must return nil")
	}
}

func TestRegistryCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("core.switch.miss")
	if again := r.Counter("core.switch.miss"); again != c {
		t.Fatalf("Counter must be get-or-create, got distinct pointers")
	}
	c.Add(41)
	c.Inc()
	g := r.Gauge("pool.active")
	g.Set(4)
	g.Add(-1)

	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot rows = %d, want 2", len(snap))
	}
	// Sorted by name: core.switch.miss before pool.active.
	if snap[0].Name != "core.switch.miss" || snap[0].Value != 42 || snap[0].Kind != "counter" {
		t.Fatalf("bad counter row: %+v", snap[0])
	}
	if snap[1].Name != "pool.active" || snap[1].Value != 3 || snap[1].Kind != "gauge" {
		t.Fatalf("bad gauge row: %+v", snap[1])
	}

	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	want := "core.switch.miss 42\npool.active 3\n"
	if buf.String() != want {
		t.Fatalf("WriteTo = %q, want %q", buf.String(), want)
	}
	if s := r.String(); !strings.Contains(s, "core.switch.miss=42") {
		t.Fatalf("String() = %q missing counter", s)
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("shared").Inc()
				r.Gauge("g").Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Load(); got != 8000 {
		t.Fatalf("shared counter = %d, want 8000", got)
	}
	if got := r.Gauge("g").Load(); got != 8000 {
		t.Fatalf("gauge = %d, want 8000", got)
	}
}

func TestTracerRingKeepsMostRecent(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 7; i++ {
		tr.Record(Event{Cycle: uint64(i), Kind: KindSwitch})
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 3 {
		t.Fatalf("Dropped = %d, want 3", tr.Dropped())
	}
	evs := tr.Events()
	for i, ev := range evs {
		if want := uint64(3 + i); ev.Cycle != want {
			t.Fatalf("event %d cycle = %d, want %d (oldest evicted first)", i, ev.Cycle, want)
		}
	}
}

func TestTracerDefaultCapacity(t *testing.T) {
	tr := NewTracer(0)
	if got := len(tr.buf); got != DefaultTracerCap {
		t.Fatalf("default capacity = %d, want %d", got, DefaultTracerCap)
	}
}

func TestTracerRecordDoesNotAllocate(t *testing.T) {
	tr := NewTracer(1024)
	allocs := testing.AllocsPerRun(100, func() {
		tr.Record(Event{Cycle: 1, Kind: KindSample, A: 1.5})
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %v objects per call, want 0", allocs)
	}
	var nilTr *Tracer
	allocs = testing.AllocsPerRun(100, func() {
		nilTr.Record(Event{Cycle: 1, Kind: KindSample})
	})
	if allocs != 0 {
		t.Fatalf("disabled Record allocates %v objects per call, want 0", allocs)
	}
}

// Every Kind and Cause has its own wire name, so an exported record
// names its kind and cause unambiguously.
func TestKindAndCauseNamesRoundTrip(t *testing.T) {
	kinds := map[string]Kind{}
	for k := KindSwitch; k <= KindPhase; k++ {
		if prev, dup := kinds[k.String()]; dup || k.String() == "unknown" {
			t.Fatalf("kind %d name %q is not its own (also kind %d)", k, k.String(), prev)
		}
		kinds[k.String()] = k
	}
	causes := map[string]Cause{}
	for c := CauseNone; c <= CauseMeasure; c++ {
		if prev, dup := causes[c.String()]; dup || c.String() == "unknown" {
			t.Fatalf("cause %d name %q is not its own (also cause %d)", c, c.String(), prev)
		}
		causes[c.String()] = c
	}
	if Kind(99).String() != "unknown" || Cause(99).String() != "unknown" {
		t.Fatalf("out-of-range values must render as unknown")
	}
}

func sampleEvents() []Event {
	return []Event{
		{Cycle: 0, Kind: KindPhase, Cause: CauseMeasure, Thread: -1},
		{Cycle: 100, Kind: KindSwitch, Cause: CauseMiss, Thread: 0, A: 12.5, N: 1},
		{Cycle: 106, Kind: KindDeficit, Thread: 1, A: 1500, B: 1500},
		{Cycle: 900, Kind: KindSkip, Thread: 1, N: 250},
		{Cycle: 2000, Kind: KindSwitch, Cause: CauseQuota, Thread: 1, A: -1, N: 0},
		{Cycle: 250000, Kind: KindSample, Thread: 0, A: 2.38, B: 0.42, N: 105000},
		{Cycle: 250000, Kind: KindQuota, Thread: 0, A: 1666.7},
		{Cycle: 300000, Kind: KindSlice, Cause: CauseMeasure, Thread: -1, N: 1 << 20},
	}
}

// The CSV export decodes with encoding/csv into one record per event
// that carries the event exactly.
func TestCSVRoundTrip(t *testing.T) {
	events := sampleEvents()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, events, TraceMeta{}); err != nil {
		t.Fatal(err)
	}
	recs := decodeCSV(t, buf.Bytes())
	if len(recs) != len(events) {
		t.Fatalf("%d records for %d events", len(recs), len(events))
	}
	for i, ev := range events {
		checkRecord(t, recs[i], ev)
	}
}

func TestCSVNonFiniteRoundTrip(t *testing.T) {
	events := []Event{{Kind: KindSample, A: math.NaN(), B: math.Inf(1)}}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, events, TraceMeta{}); err != nil {
		t.Fatal(err)
	}
	recs := decodeCSV(t, buf.Bytes())
	if len(recs) != 1 || recs[0][4] != "NaN" || recs[0][5] != "+Inf" {
		t.Fatalf("non-finite payloads must survive CSV: %v", recs)
	}
	checkRecord(t, recs[0], events[0])
}

// The Chrome export decodes with encoding/json, and the args of its
// event records (thread names and dispatch spans aside) carry the
// events exactly, in order.
func TestChromeTraceRoundTrip(t *testing.T) {
	events := sampleEvents()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events, TraceMeta{ThreadNames: []string{"gcc", "eon"}}); err != nil {
		t.Fatal(err)
	}
	_, recs := decodeChrome(t, buf.Bytes())
	if len(recs) != len(events) {
		t.Fatalf("%d records for %d events", len(recs), len(events))
	}
	for i, ev := range events {
		checkRecord(t, recs[i], ev)
	}
}

func TestChromeTraceStructure(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, sampleEvents(), TraceMeta{ThreadNames: []string{"gcc", "eon"}}); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{
		`"traceEvents"`,    // object form, not the bare array
		`"thread_name"`,    // track labels
		`"switch:miss"`,    // miss-induced switch
		`"switch:quota"`,   // forced switch
		`"deficit.t1"`,     // deficit counter track
		`"fast-forward"`,   // skip span
		`"cat":"dispatch"`, // synthesized occupancy spans
		`"ph":"X"`, `"ph":"i"`, `"ph":"C"`, `"ph":"M"`,
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("chrome trace missing %s in:\n%s", want, s)
		}
	}
}
