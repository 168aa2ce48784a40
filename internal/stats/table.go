package stats

import (
	"fmt"
	"io"
	"strings"
)

// Table accumulates rows of strings and renders them with aligned
// columns, in the style the experiment harnesses use to print the
// paper's tables.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row. Cells beyond the header width are kept; short
// rows are padded when rendering.
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// AddRowf appends a row built from formatted values: each argument is
// rendered with %v unless it is a float64, which uses %.3f.
func (t *Table) AddRowf(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// WriteTo renders the table. It always returns the byte count written
// and the first write error, satisfying io.WriterTo.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.header))
	grow := func(row []string) {
		for i, c := range row {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	grow(t.header)
	for _, r := range t.rows {
		grow(r)
	}

	var total int64
	emit := func(s string) error {
		n, err := io.WriteString(w, s)
		total += int64(n)
		return err
	}
	line := func(row []string) error {
		var b strings.Builder
		for i, wd := range widths {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", wd-len(cell)))
		}
		return emit(strings.TrimRight(b.String(), " ") + "\n")
	}
	if err := line(t.header); err != nil {
		return total, err
	}
	var rule []string
	for _, wd := range widths {
		rule = append(rule, strings.Repeat("-", wd))
	}
	if err := line(rule); err != nil {
		return total, err
	}
	for _, r := range t.rows {
		if err := line(r); err != nil {
			return total, err
		}
	}
	return total, nil
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.WriteTo(&b) // strings.Builder never errors
	return b.String()
}

// CSV renders the table as comma-separated values (cells containing
// commas or quotes are quoted).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(row []string) {
		for i, c := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, `"`, `""`))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
