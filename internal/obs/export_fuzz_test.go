package obs

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strconv"
	"testing"
)

// eventsEqual compares events treating NaN payloads as equal to
// themselves (the exporters preserve NaN, but NaN != NaN).
func eventsEqual(a, b Event) bool {
	feq := func(x, y float64) bool {
		if math.IsNaN(x) && math.IsNaN(y) {
			return true
		}
		return x == y
	}
	return a.Cycle == b.Cycle && a.Kind == b.Kind && a.Cause == b.Cause &&
		a.Thread == b.Thread && a.N == b.N && feq(a.A, b.A) && feq(a.B, b.B)
}

// decodeCSV decodes a CSV export with encoding/csv, skipping '#'
// comment lines, checks the header and returns the event records.
func decodeCSV(t testing.TB, data []byte) [][]string {
	t.Helper()
	cr := csv.NewReader(bytes.NewReader(data))
	cr.Comment = '#'
	cr.FieldsPerRecord = len(csvHeader)
	rows, err := cr.ReadAll()
	if err != nil {
		t.Fatalf("encoding/csv rejects the export: %v\n%s", err, data)
	}
	if len(rows) == 0 || !slices.Equal(rows[0], csvHeader) {
		t.Fatalf("export has no %v header:\n%s", csvHeader, data)
	}
	return rows[1:]
}

// decodeChrome decodes a Chrome export with encoding/json and returns
// the trace and, in CSV column order, the args of its event records
// (thread_name metadata and synthesized dispatch spans left out).
func decodeChrome(t testing.TB, data []byte) (chromeTrace, [][]string) {
	t.Helper()
	var tr chromeTrace
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatalf("encoding/json rejects the export: %v\n%s", err, data)
	}
	var recs [][]string
	for _, ce := range tr.TraceEvents {
		if ce.Ph == "M" || ce.Cat == "dispatch" {
			continue
		}
		rec := make([]string, len(csvHeader))
		for i, col := range csvHeader {
			rec[i] = ce.Args[col]
		}
		recs = append(recs, rec)
	}
	return tr, recs
}

// checkRecord checks that one exported record carries ev exactly: its
// numbers parse back to ev's values and its kind and cause are their
// wire names.
func checkRecord(t testing.TB, rec []string, ev Event) {
	t.Helper()
	cycle, err := strconv.ParseUint(rec[0], 10, 64)
	thread, err2 := strconv.ParseInt(rec[2], 10, 32)
	a, err3 := strconv.ParseFloat(rec[4], 64)
	b, err4 := strconv.ParseFloat(rec[5], 64)
	n, err5 := strconv.ParseUint(rec[6], 10, 64)
	for _, e := range []error{err2, err3, err4, err5} {
		if err == nil {
			err = e
		}
	}
	got := Event{Cycle: cycle, Kind: ev.Kind, Cause: ev.Cause, Thread: int32(thread), A: a, B: b, N: n}
	if err != nil || rec[1] != ev.Kind.String() || rec[3] != ev.Cause.String() || !eventsEqual(got, ev) {
		t.Fatalf("record %q does not carry %+v (%v)", rec, ev, err)
	}
}

// fuzzEvent clamps fuzz inputs onto the valid enum ranges so the
// exporters are fuzzed over encodable events.
func fuzzEvent(cycle uint64, kind, cause uint8, thread int32, a, b float64, n uint64) Event {
	return Event{
		Cycle:  cycle,
		Kind:   Kind(kind%uint8(KindPhase)) + KindSwitch,
		Cause:  Cause(cause % uint8(CauseMeasure+1)),
		Thread: thread,
		A:      a,
		B:      b,
		N:      n,
	}
}

// The CSV export of any event decodes with encoding/csv into one record
// that carries the event exactly.
func FuzzCSVRoundTrip(f *testing.F) {
	f.Add(uint64(100), uint8(0), uint8(1), int32(0), 1.5, -2.25, uint64(7))
	f.Add(uint64(0), uint8(3), uint8(0), int32(-1), math.NaN(), math.Inf(-1), uint64(0))
	f.Add(^uint64(0), uint8(6), uint8(7), int32(1), 1e308, 5e-324, ^uint64(0))
	f.Fuzz(func(t *testing.T, cycle uint64, kind, cause uint8, thread int32, a, b float64, n uint64) {
		want := fuzzEvent(cycle, kind, cause, thread, a, b, n)
		var buf bytes.Buffer
		if err := WriteCSV(&buf, []Event{want}, TraceMeta{Dropped: n % 3}); err != nil {
			t.Fatalf("WriteCSV: %v", err)
		}
		recs := decodeCSV(t, buf.Bytes())
		if len(recs) != 1 {
			t.Fatalf("%d records for one event:\n%s", len(recs), buf.String())
		}
		checkRecord(t, recs[0], want)
	})
}

// The Chrome export of any event decodes with encoding/json into one
// trace event whose args carry the event exactly.
func FuzzChromeTraceRoundTrip(f *testing.F) {
	f.Add(uint64(100), uint8(0), uint8(1), int32(0), 1.5, -2.25, uint64(7))
	f.Add(uint64(0), uint8(1), uint8(2), int32(-1), math.NaN(), math.Inf(1), uint64(3))
	f.Add(^uint64(0), uint8(4), uint8(6), int32(1), 1e308, 5e-324, ^uint64(0))
	f.Fuzz(func(t *testing.T, cycle uint64, kind, cause uint8, thread int32, a, b float64, n uint64) {
		want := fuzzEvent(cycle, kind, cause, thread, a, b, n)
		var buf bytes.Buffer
		meta := TraceMeta{ThreadNames: []string{"t0", "t1"}, Dropped: n % 3}
		if err := WriteChromeTrace(&buf, []Event{want}, meta); err != nil {
			t.Fatalf("WriteChromeTrace: %v", err)
		}
		_, recs := decodeChrome(t, buf.Bytes())
		if len(recs) != 1 {
			t.Fatalf("%d trace events for one event:\n%s", len(recs), buf.String())
		}
		checkRecord(t, recs[0], want)
	})
}

// goldenEvents covers every Kind and every Cause, switches far enough
// apart to synthesize dispatch spans, a cycle beyond float64 precision
// and non-finite payloads.
func goldenEvents() []Event {
	return []Event{
		{Cycle: 0, Kind: KindPhase, Cause: CauseWarmup, Thread: -1},
		{Cycle: 10, Kind: KindSlice, Cause: CauseWarmup, Thread: -1, N: 1 << 20},
		{Cycle: 20, Kind: KindPhase, Cause: CauseMeasure, Thread: -1},
		{Cycle: 100, Kind: KindSwitch, Cause: CauseMiss, Thread: 0, A: 12.5, N: 1},
		{Cycle: 106, Kind: KindDeficit, Thread: 1, A: 1500, B: 1500},
		{Cycle: 900, Kind: KindSkip, Thread: 1, N: 250},
		{Cycle: 2000, Kind: KindSwitch, Cause: CauseQuota, Thread: 1, A: -1, N: 0},
		{Cycle: 2500, Kind: KindSwitch, Cause: CauseMaxCycles, Thread: 0, N: 1},
		{Cycle: 2600, Kind: KindSwitch, Cause: CausePause, Thread: 1, N: 0},
		{Cycle: 2700, Kind: KindSwitch, Cause: CauseL1Miss, Thread: 0, A: 0.1, N: 1},
		{Cycle: 250000, Kind: KindSample, Thread: 0, A: math.NaN(), B: math.Inf(1), N: 105000},
		{Cycle: 250000, Kind: KindQuota, Thread: 0, A: math.Inf(-1)},
		{Cycle: 1<<62 + 1, Kind: KindSlice, Cause: CauseMeasure, Thread: -1, N: ^uint64(0)},
	}
}

// TestExportGolden pins both exporters' bytes over goldenEvents with
// thread names and a drop count.
func TestExportGolden(t *testing.T) {
	meta := TraceMeta{ThreadNames: []string{"gcc", "eon"}, Dropped: 3}
	for _, tc := range []struct {
		file  string
		write func(*bytes.Buffer) error
	}{
		{"testdata/golden.csv", func(b *bytes.Buffer) error { return WriteCSV(b, goldenEvents(), meta) }},
		{"testdata/golden.json", func(b *bytes.Buffer) error { return WriteChromeTrace(b, goldenEvents(), meta) }},
	} {
		var got bytes.Buffer
		if err := tc.write(&got); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(tc.file)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("export differs from %s:\ngot:\n%s\nwant:\n%s", tc.file, got.Bytes(), want)
		}
	}
}
