package report

import (
	"bytes"
	"encoding/xml"
	"math"
	"strings"
	"testing"

	"soemt/internal/stats"
)

// wellFormed checks the SVG parses as XML.
func wellFormed(t *testing.T, svg string) {
	t.Helper()
	dec := xml.NewDecoder(strings.NewReader(svg))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				return
			}
			t.Fatalf("SVG not well-formed: %v\n%s", err, svg[:min(len(svg), 400)])
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestChartSVG(t *testing.T) {
	c := &Chart{Title: "fairness vs F", XLabel: "F", YLabel: "fairness"}
	if err := c.Add("gcc:eon", []float64{0, 0.5, 1}, []float64{0.1, 0.3, 0.4}); err != nil {
		t.Fatal(err)
	}
	if err := c.Add("mcf:galgel", []float64{0, 0.5, 1}, []float64{0.03, 0.36, 0.7}); err != nil {
		t.Fatal(err)
	}
	svg := c.SVG()
	wellFormed(t, svg)
	for _, want := range []string{"fairness vs F", "gcc:eon", "polyline", "svg"} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	if len(c.series) != 2 {
		t.Error("series count")
	}
}

func TestChartRejectsLengthMismatch(t *testing.T) {
	c := &Chart{}
	if err := c.Add("bad", []float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch must error")
	}
}

func TestChartHandlesNaN(t *testing.T) {
	c := &Chart{Title: "nan"}
	c.Add("s", []float64{0, 1, 2}, []float64{1, math.NaN(), 3})
	svg := c.SVG()
	wellFormed(t, svg)
	if strings.Contains(svg, "NaN") {
		t.Fatal("NaN leaked into SVG")
	}
}

func TestChartEmptySeries(t *testing.T) {
	c := &Chart{Title: "empty"}
	wellFormed(t, c.SVG()) // no series: still a valid frame
	c.Add("allbad", []float64{0}, []float64{math.Inf(1)})
	wellFormed(t, c.SVG())
}

func TestChartEscapesTitles(t *testing.T) {
	c := &Chart{Title: `a<b & "c"`}
	svg := c.SVG()
	wellFormed(t, svg)
	if strings.Contains(svg, "a<b") {
		t.Fatal("title not escaped")
	}
}

func TestBarChartSVG(t *testing.T) {
	bc := &BarChart{
		Title:  "throughput",
		YLabel: "IPC",
		Groups: []string{"gcc:eon", "swim:swim"},
	}
	if err := bc.Add("F=0", []float64{1.8, 1.3}); err != nil {
		t.Fatal(err)
	}
	if err := bc.Add("F=1", []float64{1.6, 1.25}); err != nil {
		t.Fatal(err)
	}
	svg := bc.SVG()
	wellFormed(t, svg)
	if !strings.Contains(svg, "rect") || !strings.Contains(svg, "swim:swim") {
		t.Error("bar chart incomplete")
	}
	if len(bc.series) != 2 {
		t.Error("series count")
	}
}

func TestBarChartRejectsWrongGroupCount(t *testing.T) {
	bc := &BarChart{Groups: []string{"a", "b"}}
	if err := bc.Add("s", []float64{1}); err == nil {
		t.Fatal("wrong group count must error")
	}
}

func TestBarChartZeroMax(t *testing.T) {
	bc := &BarChart{Groups: []string{"a"}}
	bc.Add("s", []float64{0})
	wellFormed(t, bc.SVG())
}

func TestHTMLRender(t *testing.T) {
	h := &HTML{Title: "SOE report"}
	h.Heading("Figure 6")
	h.Text("measured at %s scale", "quick")
	c := &Chart{Title: "c"}
	c.Add("s", []float64{0, 1}, []float64{1, 2})
	h.Chart(c)
	bc := &BarChart{Title: "b", Groups: []string{"g"}}
	bc.Add("s", []float64{1})
	h.Bars(bc)
	tbl := stats.NewTable("pair", "IPC")
	tbl.AddRow("gcc:eon", "1.72")
	h.Table(tbl)

	var buf bytes.Buffer
	if err := h.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"<!DOCTYPE html>", "SOE report", "<h2>Figure 6</h2>",
		"quick", "<svg", "<table>", "gcc:eon", "</html>",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestHTMLTableEscaping(t *testing.T) {
	h := &HTML{Title: "t"}
	tbl := stats.NewTable("a")
	tbl.AddRow(`x<y & "z", comma`)
	h.Table(tbl)
	var buf bytes.Buffer
	if err := h.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "x<y") {
		t.Fatal("cell not escaped")
	}
	if !strings.Contains(out, `x&lt;y &amp; &quot;z&quot;, comma`) {
		t.Fatalf("quoted CSV cell not reassembled: %s", out)
	}
}

func TestSplitCSV(t *testing.T) {
	cases := map[string][]string{
		"a,b,c":           {"a", "b", "c"},
		`"a,b",c`:         {"a,b", "c"},
		`"say ""hi""",x`:  {`say "hi"`, "x"},
		"single":          {"single"},
		`"trailing,",end`: {"trailing,", "end"},
	}
	for in, want := range cases {
		got := splitCSV(in)
		if len(got) != len(want) {
			t.Errorf("splitCSV(%q) = %v", in, got)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("splitCSV(%q)[%d] = %q, want %q", in, i, got[i], want[i])
			}
		}
	}
}

func TestTicker(t *testing.T) {
	cases := map[float64]string{
		2_500_000: "2.5M",
		50_000:    "50k",
		42:        "42",
		0.25:      "0.25",
	}
	for v, want := range cases {
		if got := ticker(v); got != want {
			t.Errorf("ticker(%v) = %q, want %q", v, got, want)
		}
	}
}
