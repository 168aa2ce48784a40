package stats

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "ipc")
	tb.AddRow("gcc", "1.2")
	tb.AddRowf("eon", 2.0)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected 4 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Errorf("header line = %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Errorf("rule line = %q", lines[1])
	}
	if !strings.Contains(lines[3], "2.000") {
		t.Errorf("float formatting: %q", lines[3])
	}
	if len(tb.rows) != 2 {
		t.Errorf("rows = %d", len(tb.rows))
	}
}

func TestTableColumnAlignment(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRow("longvalue", "x")
	out := tb.String()
	lines := strings.Split(out, "\n")
	// "b" column should start at the same offset in header and row.
	hIdx := strings.Index(lines[0], "b")
	rIdx := strings.Index(lines[2], "x")
	if hIdx != rIdx {
		t.Errorf("misaligned columns: header b at %d, row x at %d\n%s", hIdx, rIdx, out)
	}
}

func TestTableRaggedRows(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRow("only")
	tb.AddRow("x", "y", "extra")
	out := tb.String()
	if !strings.Contains(out, "extra") {
		t.Error("extra cell dropped")
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("name", "note")
	tb.AddRow("a,b", `say "hi"`)
	csv := tb.CSV()
	if !strings.Contains(csv, `"a,b"`) {
		t.Errorf("comma cell not quoted: %q", csv)
	}
	if !strings.Contains(csv, `"say ""hi"""`) {
		t.Errorf("quote cell not escaped: %q", csv)
	}
	if !strings.HasPrefix(csv, "name,note\n") {
		t.Errorf("csv header wrong: %q", csv)
	}
}
