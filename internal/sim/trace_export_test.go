package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"soemt/internal/core"
	"soemt/internal/obs"
	"soemt/internal/workload"
)

// TestTraceExportRoundTripGccEon is the acceptance test for the tracing
// pipeline: run the paper's gcc:eon starvation pair under Fairness F=1
// with a tracer attached and check the record stream — chronological
// ordering, the presence of switch (including miss-induced), Δ-sample,
// quota and deficit records, and per-thread attribution of each — then
// export the Chrome trace_event JSON exactly as `soesim -trace-events`
// does and check that it decodes with one trace event per record.
func TestTraceExportRoundTripGccEon(t *testing.T) {
	m := DefaultMachine()
	m.Controller.Policy = core.Fairness{F: 1}
	// Shrink Δ so the short test run crosses several sampling
	// boundaries and records quota recomputations.
	m.Controller.Delta = 20_000
	m.Controller.MaxCyclesQuota = 5_000
	spec := Spec{
		Machine: m,
		Threads: []ThreadSpec{
			{Profile: workload.MustByName("gcc"), Slot: 0},
			{Profile: workload.MustByName("eon"), Slot: 1},
		},
		Scale: Scale{CacheWarm: 40_000, Warm: 20_000, Measure: 120_000, MaxCycles: 10_000_000},
	}
	tracer := obs.NewTracer(0)
	spec.Obs = &obs.Observer{Trace: tracer, Metrics: obs.NewRegistry()}
	if _, err := Run(spec); err != nil {
		t.Fatal(err)
	}
	events := tracer.Events()
	if len(events) == 0 {
		t.Fatal("tracer recorded no events")
	}
	if tracer.Dropped() != 0 {
		t.Fatalf("ring dropped %d events at test scale; capacity sizing is broken", tracer.Dropped())
	}

	// The export is valid JSON with one trace event per record, beside
	// the two thread_name tracks and the synthesized dispatch spans.
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, events, obs.MetaFor(tracer, []string{"gcc", "eon"})); err != nil {
		t.Fatal(err)
	}
	var exported struct {
		TraceEvents []struct {
			Cat string `json:"cat"`
			Ph  string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &exported); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	records, tracks := 0, 0
	for _, ce := range exported.TraceEvents {
		switch {
		case ce.Ph == "M":
			tracks++
		case ce.Cat != "dispatch":
			records++
		}
	}
	if records != len(events) || tracks != 2 {
		t.Fatalf("export has %d trace events and %d tracks for %d records and 2 threads", records, tracks, len(events))
	}

	// Chronological ordering: the tracer records in simulation order,
	// so cycles must be non-decreasing.
	for i := 1; i < len(events); i++ {
		if events[i].Cycle < events[i-1].Cycle {
			t.Fatalf("event %d at cycle %d precedes event %d at cycle %d",
				i, events[i].Cycle, i-1, events[i-1].Cycle)
		}
	}

	kinds := map[obs.Kind]int{}
	missSwitches := 0
	for _, ev := range events {
		kinds[ev.Kind]++
		switch ev.Kind {
		case obs.KindSwitch:
			if ev.Cause == obs.CauseMiss {
				missSwitches++
			}
			// Attribution: Thread is the outgoing thread, N the
			// incoming one; both must be valid slots and distinct.
			if ev.Thread != 0 && ev.Thread != 1 {
				t.Fatalf("switch at cycle %d from invalid thread %d", ev.Cycle, ev.Thread)
			}
			if ev.N != 0 && ev.N != 1 {
				t.Fatalf("switch at cycle %d to invalid thread %d", ev.Cycle, ev.N)
			}
			if uint64(ev.Thread) == ev.N {
				t.Fatalf("switch at cycle %d from thread %d to itself", ev.Cycle, ev.Thread)
			}
		case obs.KindSample, obs.KindQuota, obs.KindDeficit:
			if ev.Thread != 0 && ev.Thread != 1 {
				t.Fatalf("%s at cycle %d attributed to invalid thread %d", ev.Kind, ev.Cycle, ev.Thread)
			}
		}
	}
	for _, want := range []obs.Kind{obs.KindSwitch, obs.KindSample, obs.KindQuota, obs.KindDeficit} {
		if kinds[want] == 0 {
			t.Errorf("trace has no %s records (kind counts: %v)", want, kinds)
		}
	}
	if missSwitches == 0 {
		t.Error("trace has no miss-induced switches; gcc:eon must miss at this scale")
	}

	// Each Δ boundary samples both threads: sample records must cover
	// both, and deficit updates must name the incoming thread of the
	// preceding switch.
	sampled := map[int32]bool{}
	for _, ev := range events {
		if ev.Kind == obs.KindSample {
			sampled[ev.Thread] = true
		}
	}
	if !sampled[0] || !sampled[1] {
		t.Errorf("Δ samples cover threads %v, want both 0 and 1", sampled)
	}
	lastIn := int32(-1)
	for _, ev := range events {
		switch ev.Kind {
		case obs.KindSwitch:
			lastIn = int32(ev.N)
		case obs.KindDeficit:
			if lastIn >= 0 && ev.Thread != lastIn {
				t.Fatalf("deficit update at cycle %d names thread %d; incoming thread of the preceding switch is %d",
					ev.Cycle, ev.Thread, lastIn)
			}
		}
	}
}
