package main

import (
	"fmt"
	"io"

	"soemt/internal/sim"
	"soemt/internal/stats"
)

// dumpSamples prints the Δ-window sampling series (quota evolution),
// one column group per thread; used with -samples for debugging the
// enforcement loop.
func dumpSamples(w io.Writer, res *sim.Result) {
	header := []string{"cycle"}
	for i := range res.Threads {
		header = append(header, fmt.Sprintf("estST%d", i), fmt.Sprintf("winIPC%d", i), fmt.Sprintf("quota%d", i))
	}
	t := stats.NewTable(header...)
	for _, s := range res.Samples {
		row := []string{fmt.Sprintf("%d", s.Cycle)}
		for _, th := range s.Threads {
			row = append(row, fmt.Sprintf("%.3f", th.EstIPCST), fmt.Sprintf("%.3f", th.WindowIPC), fmt.Sprintf("%.0f", th.Quota))
		}
		t.AddRow(row...)
	}
	t.WriteTo(w)
}
