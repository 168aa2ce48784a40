package report

import (
	"fmt"
	"io"
	"strings"

	"soemt/internal/stats"
)

// HTML accumulates sections (text, tables, charts) and renders a
// standalone report document.
type HTML struct {
	Title    string
	sections []string
}

// Heading starts a new section.
func (h *HTML) Heading(title string) {
	h.sections = append(h.sections, "<h2>"+esc(title)+"</h2>")
}

// Text adds a paragraph.
func (h *HTML) Text(format string, args ...interface{}) {
	h.sections = append(h.sections, "<p>"+esc(fmt.Sprintf(format, args...))+"</p>")
}

// Chart embeds a line chart.
func (h *HTML) Chart(c *Chart) {
	h.sections = append(h.sections, c.SVG())
}

// Bars embeds a grouped bar chart.
func (h *HTML) Bars(bc *BarChart) {
	h.sections = append(h.sections, bc.SVG())
}

// Table embeds a stats.Table as an HTML table.
func (h *HTML) Table(t *stats.Table) {
	var b strings.Builder
	b.WriteString("<table>")
	for i, line := range strings.Split(strings.TrimRight(t.CSV(), "\n"), "\n") {
		cells := splitCSV(line)
		tag := "td"
		if i == 0 {
			tag = "th"
		}
		b.WriteString("<tr>")
		for _, c := range cells {
			fmt.Fprintf(&b, "<%s>%s</%s>", tag, esc(c), tag)
		}
		b.WriteString("</tr>")
	}
	b.WriteString("</table>")
	h.sections = append(h.sections, b.String())
}

// splitCSV parses one line of the Table.CSV output (quotes per RFC
// 4180 as emitted by stats.Table).
func splitCSV(line string) []string {
	var out []string
	var cur strings.Builder
	inQ := false
	for i := 0; i < len(line); i++ {
		ch := line[i]
		switch {
		case inQ && ch == '"' && i+1 < len(line) && line[i+1] == '"':
			cur.WriteByte('"')
			i++
		case ch == '"':
			inQ = !inQ
		case ch == ',' && !inQ:
			out = append(out, cur.String())
			cur.Reset()
		default:
			cur.WriteByte(ch)
		}
	}
	out = append(out, cur.String())
	return out
}

// Render writes the complete document.
func (h *HTML) Render(w io.Writer) error {
	header := `<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>` + esc(h.Title) + `</title>
<style>
body { font-family: sans-serif; max-width: 960px; margin: 24px auto; color: #222; }
table { border-collapse: collapse; margin: 12px 0; font-size: 13px; }
th, td { border: 1px solid #ccc; padding: 3px 8px; text-align: right; }
th:first-child, td:first-child { text-align: left; }
pre { background: #f6f6f6; padding: 8px; overflow-x: auto; font-size: 12px; }
svg { margin: 8px 0; }
</style></head><body>
<h1>` + esc(h.Title) + `</h1>
`
	if _, err := io.WriteString(w, header); err != nil {
		return err
	}
	for _, s := range h.sections {
		if _, err := io.WriteString(w, s+"\n"); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "</body></html>\n")
	return err
}
