// Package report renders experiment results as standalone HTML with
// inline SVG charts — line charts for the time-series and sweep
// figures, grouped bar charts for the per-pair figures — using only
// the standard library. cmd/soefig uses it for its -html mode.
package report

import (
	"fmt"
	"math"
	"strings"
)

// palette is a colorblind-friendly cycle for series.
var palette = []string{
	"#0072b2", "#d55e00", "#009e73", "#cc79a7", "#e69f00", "#56b4e9", "#f0e442", "#000000",
}

// Series is one line of a Chart.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Chart is an XY line chart.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	W, H   int // pixel dimensions (defaults 640x360)

	series []Series
}

// Add appends a series; X and Y must have equal length.
func (c *Chart) Add(name string, x, y []float64) error {
	if len(x) != len(y) {
		return fmt.Errorf("report: series %q: %d x values vs %d y values", name, len(x), len(y))
	}
	c.series = append(c.series, Series{Name: name, X: x, Y: y})
	return nil
}

const (
	marginL = 60
	marginR = 16
	marginT = 34
	marginB = 46
)

func (c *Chart) dims() (int, int) {
	w, h := c.W, c.H
	if w <= 0 {
		w = 640
	}
	if h <= 0 {
		h = 360
	}
	return w, h
}

// bounds computes the data extents over all series, ignoring NaN/Inf.
func (c *Chart) bounds() (xMin, xMax, yMin, yMax float64, ok bool) {
	xMin, yMin = math.Inf(1), math.Inf(1)
	xMax, yMax = math.Inf(-1), math.Inf(-1)
	for _, s := range c.series {
		for i := range s.X {
			if bad(s.X[i]) || bad(s.Y[i]) {
				continue
			}
			xMin, xMax = math.Min(xMin, s.X[i]), math.Max(xMax, s.X[i])
			yMin, yMax = math.Min(yMin, s.Y[i]), math.Max(yMax, s.Y[i])
			ok = true
		}
	}
	if xMax == xMin {
		xMax = xMin + 1
	}
	if yMax == yMin {
		yMax = yMin + 1
	}
	return xMin, xMax, yMin, yMax, ok
}

func bad(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// SVG renders the chart as a standalone <svg> element.
func (c *Chart) SVG() string {
	w, h := c.dims()
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d" font-family="sans-serif" font-size="11">`, w, h, w, h)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`, w, h)
	fmt.Fprintf(&b, `<text x="%d" y="18" text-anchor="middle" font-size="14">%s</text>`, w/2, esc(c.Title))

	xMin, xMax, yMin, yMax, ok := c.bounds()
	plotW := w - marginL - marginR
	plotH := h - marginT - marginB
	px := func(x float64) float64 { return marginL + (x-xMin)/(xMax-xMin)*float64(plotW) }
	py := func(y float64) float64 { return marginT + (yMax-y)/(yMax-yMin)*float64(plotH) }

	// Frame and gridlines with tick labels.
	fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" fill="none" stroke="#999"/>`,
		marginL, marginT, plotW, plotH)
	if ok {
		for i := 0; i <= 4; i++ {
			fy := yMin + (yMax-yMin)*float64(i)/4
			y := py(fy)
			fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#eee"/>`,
				marginL, y, marginL+plotW, y)
			fmt.Fprintf(&b, `<text x="%d" y="%.1f" text-anchor="end">%s</text>`,
				marginL-6, y+4, ticker(fy))
			fx := xMin + (xMax-xMin)*float64(i)/4
			x := px(fx)
			fmt.Fprintf(&b, `<text x="%.1f" y="%d" text-anchor="middle">%s</text>`,
				x, marginT+plotH+16, ticker(fx))
		}
	}
	fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="middle">%s</text>`,
		marginL+plotW/2, h-8, esc(c.XLabel))
	fmt.Fprintf(&b, `<text x="14" y="%d" text-anchor="middle" transform="rotate(-90 14 %d)">%s</text>`,
		marginT+plotH/2, marginT+plotH/2, esc(c.YLabel))

	// Series polylines + legend.
	for si, s := range c.series {
		color := palette[si%len(palette)]
		var pts []string
		for i := range s.X {
			if bad(s.X[i]) || bad(s.Y[i]) {
				continue
			}
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", px(s.X[i]), py(s.Y[i])))
		}
		if len(pts) > 0 {
			fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.6"/>`,
				strings.Join(pts, " "), color)
		}
		lx := marginL + 8
		ly := marginT + 14 + si*14
		fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="2"/>`,
			lx, ly-4, lx+18, ly-4, color)
		fmt.Fprintf(&b, `<text x="%d" y="%d">%s</text>`, lx+24, ly, esc(s.Name))
	}
	b.WriteString(`</svg>`)
	return b.String()
}

// BarSeries is one series of a grouped bar chart.
type BarSeries struct {
	Name string
	Y    []float64 // one value per group
}

// BarChart is a grouped bar chart (e.g. per-pair values at several F
// levels).
type BarChart struct {
	Title  string
	YLabel string
	Groups []string // group labels (x axis)
	W, H   int

	series []BarSeries
}

// Add appends a series; Y must have one value per group.
func (bc *BarChart) Add(name string, y []float64) error {
	if len(y) != len(bc.Groups) {
		return fmt.Errorf("report: bar series %q: %d values for %d groups", name, len(y), len(bc.Groups))
	}
	bc.series = append(bc.series, BarSeries{Name: name, Y: y})
	return nil
}

// SVG renders the grouped bar chart.
func (bc *BarChart) SVG() string {
	w, h := bc.W, bc.H
	if w <= 0 {
		w = 900
	}
	if h <= 0 {
		h = 380
	}
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d" font-family="sans-serif" font-size="11">`, w, h, w, h)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`, w, h)
	fmt.Fprintf(&b, `<text x="%d" y="18" text-anchor="middle" font-size="14">%s</text>`, w/2, esc(bc.Title))

	yMax := 0.0
	for _, s := range bc.series {
		for _, v := range s.Y {
			if !bad(v) && v > yMax {
				yMax = v
			}
		}
	}
	if yMax == 0 {
		yMax = 1
	}
	plotW := w - marginL - marginR
	plotH := h - marginT - marginB - 10
	py := func(y float64) float64 { return marginT + (yMax-y)/yMax*float64(plotH) }

	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#999"/>`,
		marginL, marginT+plotH, marginL+plotW, marginT+plotH)
	for i := 0; i <= 4; i++ {
		fy := yMax * float64(i) / 4
		y := py(fy)
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#eee"/>`,
			marginL, y, marginL+plotW, y)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" text-anchor="end">%s</text>`, marginL-6, y+4, ticker(fy))
	}
	fmt.Fprintf(&b, `<text x="14" y="%d" text-anchor="middle" transform="rotate(-90 14 %d)">%s</text>`,
		marginT+plotH/2, marginT+plotH/2, esc(bc.YLabel))

	nG, nS := len(bc.Groups), len(bc.series)
	if nG > 0 && nS > 0 {
		groupW := float64(plotW) / float64(nG)
		barW := groupW * 0.8 / float64(nS)
		for gi, g := range bc.Groups {
			gx := float64(marginL) + groupW*float64(gi)
			for si, s := range bc.series {
				v := s.Y[gi]
				if bad(v) {
					continue
				}
				x := gx + groupW*0.1 + barW*float64(si)
				y := py(v)
				fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"/>`,
					x, y, barW, float64(marginT+plotH)-y, palette[si%len(palette)])
			}
			fmt.Fprintf(&b, `<text x="%.1f" y="%d" text-anchor="end" transform="rotate(-35 %.1f %d)">%s</text>`,
				gx+groupW/2, marginT+plotH+14, gx+groupW/2, marginT+plotH+14, esc(g))
		}
	}
	for si, s := range bc.series {
		lx := marginL + 8 + si*120
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="10" height="10" fill="%s"/>`,
			lx, marginT+2, palette[si%len(palette)])
		fmt.Fprintf(&b, `<text x="%d" y="%d">%s</text>`, lx+14, marginT+11, esc(s.Name))
	}
	b.WriteString(`</svg>`)
	return b.String()
}

// ticker formats an axis tick compactly.
func ticker(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case av >= 1e4:
		return fmt.Sprintf("%.0fk", v/1e3)
	case av >= 10:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

func esc(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
