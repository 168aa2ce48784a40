package obs

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Exporters for the event tracer.
//
// Chrome trace_event JSON: the emitted file is the object form
// ({"traceEvents": [...]}) understood by chrome://tracing and Perfetto.
// One cycle is rendered as one microsecond (the format's ts unit), so
// the timeline reads directly in cycles. Every traced Event becomes
// one trace_event object whose args carry the full record in exact
// string form ("cycle", "cause", "a", "b", "n") — ts/tid/dur are
// presentation only, so the record survives exactly even for cycles
// beyond float64 precision and non-finite payloads. Two kinds of
// presentation-only extras are also emitted: thread_name metadata (ph
// "M") and per-dispatch spans (cat "dispatch") synthesized between
// consecutive switch records so thread occupancy shows as solid blocks
// on each thread's track.
//
// CSV: one event per line, "cycle,kind,thread,cause,a,b,n", with
// floats in strconv 'g'/-1 form so every value is exact.
//
// Nothing in the module reads these files back; the tests pin the
// exporters' bytes and decode them with encoding/json and encoding/csv.

// chromeEvent is the subset of the trace_event schema we write.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	S    string            `json:"s,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeTrace struct {
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData,omitempty"`
	TraceEvents     []chromeEvent     `json:"traceEvents"`
}

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// TraceMeta is export metadata that travels with the event stream.
// Dropped is load-bearing: the tracer ring evicts its oldest events at
// capacity, so a consumer reading an exported file with no drop count
// cannot tell a complete trace from the most-recent suffix of one.
// Both exporters embed it (Chrome otherData / a CSV comment line), so
// truncation is visible in the artifact itself, not only in a stderr
// warning that scrolled away.
type TraceMeta struct {
	ThreadNames []string // per-thread track labels (index = thread id)
	Dropped     uint64   // events evicted by ring overflow before export
}

// MetaFor assembles the export metadata for a tracer's current state.
func MetaFor(t *Tracer, threadNames []string) TraceMeta {
	return TraceMeta{ThreadNames: threadNames, Dropped: t.Dropped()}
}

// droppedKey is the otherData key carrying TraceMeta.Dropped in the
// Chrome exporter.
const droppedKey = "dropped_events"

func eventArgs(ev Event) map[string]string {
	return map[string]string{
		"cycle":  strconv.FormatUint(ev.Cycle, 10),
		"kind":   ev.Kind.String(),
		"thread": strconv.FormatInt(int64(ev.Thread), 10),
		"cause":  ev.Cause.String(),
		"a":      formatFloat(ev.A),
		"b":      formatFloat(ev.B),
		"n":      strconv.FormatUint(ev.N, 10),
	}
}

// WriteChromeTrace renders events as Chrome trace_event JSON.
// meta.ThreadNames, when non-empty, labels the per-thread tracks
// (index = thread id); a non-zero meta.Dropped is embedded as
// otherData[droppedKey] so the file itself records that it is the
// most-recent window of a longer run, not a complete trace.
func WriteChromeTrace(w io.Writer, events []Event, meta TraceMeta) error {
	threadNames := meta.ThreadNames
	tr := chromeTrace{
		DisplayTimeUnit: "ms",
		OtherData:       map[string]string{"tool": "soesim", "clock": "1 cycle = 1us"},
		TraceEvents:     make([]chromeEvent, 0, len(events)+len(threadNames)),
	}
	if meta.Dropped > 0 {
		tr.OtherData[droppedKey] = strconv.FormatUint(meta.Dropped, 10)
	}
	for i, name := range threadNames {
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: i,
			Args: map[string]string{"name": name},
		})
	}
	var lastSwitch *Event
	for i := range events {
		ev := events[i]
		ce := chromeEvent{
			Name: ev.Kind.String(),
			Cat:  ev.Kind.String(),
			Ph:   "i",
			Ts:   float64(ev.Cycle),
			Tid:  int(ev.Thread),
			S:    "t",
			Args: eventArgs(ev),
		}
		if ev.Cause != CauseNone {
			ce.Name = ev.Kind.String() + ":" + ev.Cause.String()
		}
		switch ev.Kind {
		case KindSwitch:
			if lastSwitch != nil && ev.Cycle >= lastSwitch.Cycle {
				// Span for the dispatch that just ended: the thread that
				// came in at the previous switch ran until this one.
				tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
					Name: "dispatch", Cat: "dispatch", Ph: "X",
					Ts: float64(lastSwitch.Cycle), Dur: float64(ev.Cycle - lastSwitch.Cycle),
					Tid: int(lastSwitch.N),
				})
			}
			lastSwitch = &events[i]
		case KindSkip:
			ce.Ph, ce.S = "X", ""
			ce.Dur = float64(ev.N)
			ce.Name = "fast-forward"
		case KindDeficit:
			ce.Ph, ce.S = "C", ""
			ce.Name = fmt.Sprintf("deficit.t%d", ev.Thread)
			ce.Args["deficit"] = formatFloat(ev.A)
			ce.Args["quota"] = formatFloat(ev.B)
		}
		tr.TraceEvents = append(tr.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(tr)
}

// csvHeader is the column layout of the CSV exporter.
var csvHeader = []string{"cycle", "kind", "thread", "cause", "a", "b", "n"}

// WriteCSV renders events as CSV with a header row. A non-zero
// meta.Dropped is recorded as a "# dropped=N" comment line before the
// header, which CSV readers that skip '#' comments pass over.
func WriteCSV(w io.Writer, events []Event, meta TraceMeta) error {
	if meta.Dropped > 0 {
		if _, err := fmt.Fprintf(w, "# dropped=%d\n", meta.Dropped); err != nil {
			return err
		}
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, ev := range events {
		rec := []string{
			strconv.FormatUint(ev.Cycle, 10),
			ev.Kind.String(),
			strconv.FormatInt(int64(ev.Thread), 10),
			ev.Cause.String(),
			formatFloat(ev.A),
			formatFloat(ev.B),
			strconv.FormatUint(ev.N, 10),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
