package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"soemt/internal/workload"
)

func sampleTrace() *Trace {
	p := workload.MustByName("gcc")
	return &Trace{
		Profile:    p,
		Checkpoint: Checkpoint{StartSeq: 1_000_000, Slot: 1},
		Events: []Event{
			{AtInstr: 10_000, Kind: EventInterrupt, StallCycles: 2000},
			{AtInstr: 50_000, Kind: EventDMA, StallCycles: 400},
			{AtInstr: 90_000, Kind: EventIO, StallCycles: 1500},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	orig := sampleTrace()
	var buf bytes.Buffer
	if err := orig.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Fatalf("round trip mismatch:\norig: %+v\ngot:  %+v", orig, got)
	}
}

func TestRoundTripNoEventsNoPhases(t *testing.T) {
	p := workload.MustByName("swim")
	p.Phases = nil
	orig := &Trace{Profile: p}
	var buf bytes.Buffer
	if err := orig.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got.Events) != 0 || len(got.Profile.Phases) != 0 {
		t.Fatal("empty slices must stay empty")
	}
	if got.Profile.Name != "swim" {
		t.Fatalf("name = %q", got.Profile.Name)
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	_, err := Decode(strings.NewReader("NOTATRACE-AT-ALL"))
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("expected magic error, got %v", err)
	}
}

func TestDecodeRejectsBadVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTrace().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[8] = 0xFF // corrupt version
	_, err := Decode(bytes.NewReader(b))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("expected version error, got %v", err)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTrace().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Truncate at several points; every prefix must fail cleanly.
	for _, n := range []int{0, 4, 8, 12, 30, len(full) / 2, len(full) - 1} {
		if _, err := Decode(bytes.NewReader(full[:n])); err == nil {
			t.Errorf("truncation at %d bytes not detected", n)
		}
	}
}

func TestEncodeRejectsInvalidProfile(t *testing.T) {
	tr := sampleTrace()
	tr.Profile.DepWindow = 0
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestValidateRejectsUnsortedEvents(t *testing.T) {
	tr := sampleTrace()
	tr.Events[0].AtInstr = 1 << 40
	if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), "sorted") {
		t.Fatalf("expected sort error, got %v", err)
	}
}

func TestValidateRejectsBadEventKind(t *testing.T) {
	tr := sampleTrace()
	tr.Events[1].Kind = EventKind(99)
	if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), "kind") {
		t.Fatalf("expected kind error, got %v", err)
	}
}

func TestEventKindString(t *testing.T) {
	if EventInterrupt.String() != "interrupt" || EventDMA.String() != "dma" {
		t.Fatal("event kind names wrong")
	}
	if !strings.Contains(EventKind(7).String(), "7") {
		t.Fatal("unknown kind string wrong")
	}
}

// checkpointStream builds the workload stream a trace describes, as
// soesim -trace does through sim.ThreadSpec: the profile in the
// checkpoint's slot, positioned at its start sequence number.
func checkpointStream(tr *Trace) *workload.Stream {
	return workload.NewStream(workload.NewOffset(tr.Profile, int(tr.Checkpoint.Slot)), tr.Checkpoint.StartSeq)
}

func TestNewStreamStartsAtCheckpoint(t *testing.T) {
	tr := sampleTrace()
	s := checkpointStream(tr)
	if s.Pos() != tr.Checkpoint.StartSeq {
		t.Fatalf("stream pos = %d, want %d", s.Pos(), tr.Checkpoint.StartSeq)
	}
	u := s.Next()
	if u.Seq != tr.Checkpoint.StartSeq {
		t.Fatalf("first uop seq = %d", u.Seq)
	}
	// Slot must shift the address space: compare against slot 0.
	tr0 := sampleTrace()
	tr0.Checkpoint.Slot = 0
	s0 := checkpointStream(tr0)
	// Find a mem op in each and compare bases (top bits differ).
	var a1, a0 uint64
	for i := 0; i < 10000 && (a1 == 0 || a0 == 0); i++ {
		if u := s.Next(); u.Kind.IsMem() && a1 == 0 {
			a1 = u.Addr
		}
		if u := s0.Next(); u.Kind.IsMem() && a0 == 0 {
			a0 = u.Addr
		}
	}
	if a1>>40 == a0>>40 {
		t.Fatal("slots do not separate address spaces")
	}
}

func TestRoundTripAllBuiltinProfiles(t *testing.T) {
	for _, name := range workload.Names() {
		tr := &Trace{Profile: workload.MustByName(name)}
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		got, err := Decode(&buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(tr, got) {
			t.Fatalf("%s: round trip mismatch", name)
		}
	}
}

func TestRoundTripFracPause(t *testing.T) {
	p := workload.MustByName("gcc")
	p.FracPause = 0.03
	orig := &Trace{Profile: p}
	var buf bytes.Buffer
	if err := orig.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Profile.FracPause != 0.03 {
		t.Fatalf("FracPause lost in round trip: %v", got.Profile.FracPause)
	}
}
