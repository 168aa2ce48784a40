package main

import (
	"math"
	"sort"
	"strings"
	"time"

	"soemt/internal/arena"
	"soemt/internal/branch"
	"soemt/internal/isa"
	"soemt/internal/mem"
	"soemt/internal/pipeline"
	"soemt/internal/sim"
	"soemt/internal/workload"
)

// Per-op replay sizes: instructions replayed per thread, and the calls
// timed together in one batch (batches amortize the clock read).
const (
	replayInstrs = 60_000
	replayCycles = 60_000
	batch        = 64
)

// opMetrics are the per-op costs the replay measures, in ns, by layer.
var opMetrics = []string{
	"workload.at_ns",
	"mem.l1_hit_ns", "mem.l2_hit_ns", "mem.miss_ns", "mem.translate_ns",
	"branch.resolve_ns",
	"pipeline.cycle_ns", "pipeline.idlescan_ns",
}

// singleCall are the op metrics timed one call at a time, because the
// call's own outcome picks the metric. They carry the clock's noise
// (a few ns against tens).
var singleCall = map[string]bool{"mem.l1_hit_ns": true, "mem.l2_hit_ns": true, "mem.miss_ns": true}

// attributed are the metrics attribute compares, one batched metric per
// layer. The single-call metrics carry clock noise, and IdleScan's cost
// depends on the pipeline state at each sampled cycle, so its median
// wanders by more than the bound between halves of one replay.
var attributed = []string{"workload.at_ns", "mem.translate_ns", "branch.resolve_ns", "pipeline.cycle_ns"}

// clockMetric holds empty timings taken beside the single-call ones; its
// median is the clock's own cost, subtracted from theirs.
const clockMetric = "clock"

// layerOf returns the layer a metric belongs to: its name up to the
// first dot.
func layerOf(metric string) string {
	l, _, _ := strings.Cut(metric, ".")
	return l
}

// replayer times calls into the layers. For the attribution self-test,
// a non-nil delay splits every metric's samples alternately between
// samples and slowed, and stretches the slowed samples of the layers
// it names by their fraction. Both halves come from the same stretch
// of time, so host noise moves them alike.
type replayer struct {
	delay   map[string]float64
	samples map[string][]float64
	slowed  map[string][]float64
	seen    map[string]int
}

func newReplayer(delay map[string]float64) *replayer {
	return &replayer{delay: delay, samples: map[string][]float64{}, slowed: map[string][]float64{}, seen: map[string]int{}}
}

// time runs fn, which makes n calls into metric's layer, and records
// the per-call cost.
func (r *replayer) time(metric string, n int, fn func()) {
	t0 := time.Now()
	fn()
	r.record(metric, n, t0)
}

// record stores the per-call cost of n calls made since t0.
func (r *replayer) record(metric string, n int, t0 time.Time) {
	set := r.samples
	if r.delay != nil {
		if r.seen[metric]++; r.seen[metric]%2 == 0 {
			set = r.slowed
			if f := r.delay[layerOf(metric)]; f > 0 {
				stretched := time.Duration(float64(time.Since(t0)) * (1 + f))
				for time.Since(t0) < stretched {
				}
			}
		}
	}
	set[metric] = append(set[metric], float64(time.Since(t0))/float64(n))
}

// medians returns each op metric's median sample (0 when the replay
// made no such call).
func (r *replayer) medians() map[string]float64 { return r.mediansOf(r.samples) }

func (r *replayer) mediansOf(set map[string][]float64) map[string]float64 {
	out := map[string]float64{}
	clock := median(r.samples[clockMetric])
	for _, m := range opMetrics {
		xs := set[m]
		switch {
		case len(xs) == 0:
			out[m] = 0
		case singleCall[m]:
			out[m] = math.Max(median(xs)-clock, 0)
		default:
			out[m] = median(xs)
		}
	}
	return out
}

// replaySpec replays spec's generated inputs through each layer's
// public calls: Generator.At; TranslateData and AccessData on a
// functionally warmed hierarchy, split by the access's L1/L2 outcome;
// the branch unit's PredictDirection/Resolve on the stream's branches;
// and a single-thread Pipeline.Cycle loop over thread 0, with an
// IdleScan timed once per batch of cycles.
func (r *replayer) replaySpec(spec sim.Spec, instrs, cycles uint64) error {
	m := spec.Machine
	gens := make([]*workload.Generator, len(spec.Threads))
	for i, ts := range spec.Threads {
		gens[i] = workload.NewOffset(ts.Profile, ts.Slot)
	}
	from := func(i int) uint64 { return spec.Threads[i].StartSeq + spec.Scale.CacheWarm }

	for i, g := range gens {
		for s := from(i); s < from(i)+instrs; s += batch {
			r.time("workload.at_ns", batch, func() {
				for k := s; k < s+batch; k++ {
					sinkUop = g.At(k)
				}
			})
		}
	}

	hier, err := mem.NewHierarchyIn(arena.New(), m.Memory)
	if err != nil {
		return err
	}
	for i, ts := range spec.Threads {
		warmCaches(hier, gens[i], ts.StartSeq, spec.Scale.CacheWarm)
	}
	now := uint64(1) << 40 // past every warmup access
	var branches []isa.Uop
	for i, g := range gens {
		var ops []isa.Uop
		for s := from(i); s < from(i)+instrs; s++ {
			u := g.At(s)
			if u.Kind == isa.Branch {
				branches = append(branches, u)
			}
			if u.Kind.IsMem() {
				ops = append(ops, u)
			}
		}
		// Per batch: translate every access in one timed block, then
		// time each access alone, since its outcome picks the metric.
		for k := 0; k+batch <= len(ops); k += batch {
			bs := ops[k : k+batch]
			r.time("mem.translate_ns", batch, func() {
				for j, u := range bs {
					sinkWalk = hier.TranslateData(now+uint64(j)*1000, u.Addr)
				}
			})
			for _, u := range bs {
				t0 := time.Now()
				r.samples[clockMetric] = append(r.samples[clockMetric], float64(time.Since(t0)))
				t0 = time.Now()
				res := hier.AccessData(now, u.Addr, u.Kind == isa.Store)
				switch {
				case res.L2Miss:
					r.record("mem.miss_ns", 1, t0)
				case res.L1Miss:
					r.record("mem.l2_hit_ns", 1, t0)
				default:
					r.record("mem.l1_hit_ns", 1, t0)
				}
				now += 1000
			}
		}
	}

	bu := branch.NewUnit(m.Pipeline.BranchEntries, m.Pipeline.BTBEntries, m.Pipeline.RASDepth, m.Pipeline.HistoryBits)
	for k := 0; k+batch <= len(branches); k += batch {
		bs := branches[k : k+batch]
		r.time("branch.resolve_ns", batch, func() {
			for _, u := range bs {
				pred := bu.PredictDirection(u.PC)
				bu.Resolve(u.PC, pred, u.Taken, u.Target)
			}
		})
	}

	ar := arena.New()
	phier, err := mem.NewHierarchyIn(ar, m.Memory)
	if err != nil {
		return err
	}
	warmCaches(phier, gens[0], spec.Threads[0].StartSeq, spec.Scale.CacheWarm)
	phier.ResetTiming()
	pbu := branch.NewUnit(m.Pipeline.BranchEntries, m.Pipeline.BTBEntries, m.Pipeline.RASDepth, m.Pipeline.HistoryBits)
	pipe, err := pipeline.NewIn(ar, m.Pipeline, phier, pbu)
	if err != nil {
		return err
	}
	pipe.SetStream(0, workload.NewStream(gens[0], from(0)), 0)
	pipe.SetEvents(spec.Threads[0].Events)
	for c := uint64(0); c < cycles; c += batch {
		c := c
		// IdleScan only reads the pipeline, so repeating it at one
		// cycle times the same scan.
		r.time("pipeline.idlescan_ns", batch, func() {
			for k := 0; k < batch; k++ {
				sinkHorizon, _, _ = pipe.IdleScan(c)
			}
		})
		r.time("pipeline.cycle_ns", batch, func() {
			for k := c; k < c+batch; k++ {
				sinkCycle = pipe.Cycle(k)
			}
		})
	}
	return nil
}

// Sinks keep the compiler from discarding replayed calls.
var (
	sinkUop     isa.Uop
	sinkWalk    mem.WalkResult
	sinkHorizon uint64
	sinkCycle   pipeline.CycleResult
)

// attribute names the layers whose attributed metric moved by more than
// bound (as a share of base) between two replays, in sorted order.
func attribute(base, cur map[string]float64, bound float64) []string {
	moved := map[string]bool{}
	for _, m := range attributed {
		b, c := base[m], cur[m]
		if b > 0 && (c-b)/b > bound {
			moved[layerOf(m)] = true
		}
	}
	var out []string
	for l := range moved {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}
