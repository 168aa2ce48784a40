package obs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// Regression: an export of a tracer that overflowed must carry the
// drop count in the artifact itself. Before the fix both exporters
// emitted a truncated event stream indistinguishable from a complete
// one.
func TestChromeTraceCarriesDropCount(t *testing.T) {
	events := sampleEvents()
	var buf bytes.Buffer
	meta := TraceMeta{ThreadNames: []string{"gcc", "eon"}, Dropped: 37}
	if err := WriteChromeTrace(&buf, events, meta); err != nil {
		t.Fatal(err)
	}
	tr, recs := decodeChrome(t, buf.Bytes())
	if got := tr.OtherData[droppedKey]; got != "37" {
		t.Fatalf("otherData[%s] = %q, want 37", droppedKey, got)
	}
	var names []string
	for _, ce := range tr.TraceEvents {
		if ce.Ph == "M" && ce.Name == "thread_name" {
			names = append(names, fmt.Sprintf("%d=%s", ce.Tid, ce.Args["name"]))
		}
	}
	if strings.Join(names, ",") != "0=gcc,1=eon" {
		t.Fatalf("thread_name records = %v, want 0=gcc, 1=eon", names)
	}
	if len(recs) != len(events) {
		t.Fatalf("%d event records, want %d", len(recs), len(events))
	}
}

func TestCSVCarriesDropCount(t *testing.T) {
	events := sampleEvents()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, events, TraceMeta{Dropped: 5}); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "# dropped=5\n") {
		t.Fatalf("CSV does not lead with the drop comment:\n%s", buf.String())
	}
	// A reader that skips '#' comments still parses the file.
	if recs := decodeCSV(t, buf.Bytes()); len(recs) != len(events) {
		t.Fatalf("%d records, want %d", len(recs), len(events))
	}
}

// A clean export (no drops) stays byte-compatible with the pre-meta
// format: no comment line, no otherData key.
func TestNoDropsMeansNoMetadata(t *testing.T) {
	events := sampleEvents()
	var csvBuf, jsonBuf bytes.Buffer
	if err := WriteCSV(&csvBuf, events, TraceMeta{}); err != nil {
		t.Fatal(err)
	}
	if strings.HasPrefix(csvBuf.String(), "#") {
		t.Fatal("drop-free CSV export grew a comment line")
	}
	if err := WriteChromeTrace(&jsonBuf, events, TraceMeta{}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(jsonBuf.String(), droppedKey) {
		t.Fatalf("drop-free chrome export carries %q", droppedKey)
	}
}
