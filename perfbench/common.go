package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"soemt/internal/rng"
	"soemt/internal/sim"
	"soemt/internal/workload"
)

// metric is one named value of the final JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one workload run prints: human lines for context and
// the metric set the last JSON line carries.
type report struct {
	attempted, failed int
	peakRSS           float64 // MiB, read when the measured part ends
	metrics           map[string]metric
	lines             []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// sample prints one named end-to-end quantity with its unit and sample
// count, the form every workload uses for the metrics it defines.
func (r *report) sample(name, unit string, v float64, n int) {
	r.linef("  %-14s %12.4f %-9s n=%d", name, v, unit, n)
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (xs need not be sorted; it is not
// modified). It returns NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMiB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("peak rss: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}

// calibrate times a fixed integer-hash kernel: the same work on every
// host and commit, so its reading normalizes timings across hosts and
// exposes a host that changed speed during a run. It returns the
// median of five timings in milliseconds.
func calibrate() float64 {
	var ts []float64
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		x := uint64(0x9e3779b97f4a7c15)
		for i := uint64(0); i < 4_000_000; i++ {
			x = rng.Mix64(x + i)
		}
		calibSink = x
		ts = append(ts, ms(time.Since(start)))
	}
	return median(ts)
}

var calibSink uint64

// perturb derives a profile from the built-in one with its Seed mixed
// with the workload seed: the same statistics, a different
// instruction stream per benchmark seed.
func perturb(p workload.Profile, seed uint64) workload.Profile {
	p.Seed = rng.Sub(seed, "perfbench|profile|"+p.Name) ^ p.Seed
	return p
}

// perturbSpec returns spec with every thread's profile perturbed.
func perturbSpec(spec sim.Spec, seed uint64) sim.Spec {
	threads := make([]sim.ThreadSpec, len(spec.Threads))
	copy(threads, spec.Threads)
	for i := range threads {
		threads[i].Profile = perturb(threads[i].Profile, seed)
	}
	spec.Threads = threads
	return spec
}

func sha256Hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// resultDigest is the sha256 of the canonical sim.Result JSON, the
// same encoding the seed-golden suite pins.
func resultDigest(r *sim.Result) (string, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	return sha256Hex(b), nil
}

// specKey is the sha256 of the spec's fingerprint payload: the key the
// pinned digests are stored under.
func specKey(spec sim.Spec) (string, error) {
	b, err := spec.FingerprintJSON()
	if err != nil {
		return "", err
	}
	return sha256Hex(b), nil
}

// measuredInstrs sums the measured-window instructions of all threads.
func measuredInstrs(r *sim.Result) uint64 {
	var n uint64
	for _, t := range r.Threads {
		n += t.Counters.Instrs
	}
	return n
}

// span is one timed call the benchmark made into a layer.
type span struct {
	Name   string
	Start  time.Duration // since the recorder's origin
	End    time.Duration
	Parent int // index of the enclosing span, -1 for none
	ReqID  string
}

// spans records spans in memory; nil records nothing, which is how the
// untraced end-to-end runs pay no tracing cost.
type spans struct {
	origin time.Time
	mu     sync.Mutex
	list   []span
}

func newSpans() *spans { return &spans{origin: time.Now()} }

// begin opens a span and returns its index; end closes it.
func (s *spans) begin(name string, parent int, req string) int {
	if s == nil {
		return -1
	}
	now := time.Since(s.origin)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list = append(s.list, span{Name: name, Start: now, Parent: parent, ReqID: req})
	return len(s.list) - 1
}

func (s *spans) end(i int) {
	if s == nil || i < 0 {
		return
	}
	now := time.Since(s.origin)
	s.mu.Lock()
	s.list[i].End = now
	s.mu.Unlock()
}

// writeChrome writes the spans as Chrome trace_event JSON (complete
// "X" events; the parent index and request id ride in args).
func (s *spans) writeChrome(path string) error {
	type ev struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	s.mu.Lock()
	evs := make([]ev, 0, len(s.list))
	for i, sp := range s.list {
		args := map[string]any{"id": i, "parent": sp.Parent}
		if sp.ReqID != "" {
			args["req"] = sp.ReqID
		}
		evs = append(evs, ev{
			Name: sp.Name, Ph: "X", Pid: 1, Tid: depth(s.list, i),
			Ts: float64(sp.Start) / 1e3, Dur: float64(sp.End-sp.Start) / 1e3, Args: args,
		})
	}
	s.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// depth is the span's nesting level, used as the Chrome track so
// children draw under their parents.
func depth(list []span, i int) int {
	d := 0
	for p := list[i].Parent; p >= 0 && d < 16; p = list[p].Parent {
		d++
	}
	return d
}

// setProcs sets GOMAXPROCS to n, at most the host's CPU count.
//
// The benchmark is sized for a 2-core host. On the 2-vCPU host it was
// built on, the second vCPU's share of a physical core came and went
// over minutes: two busy threads ran at full speed in some minutes and
// at half speed in others. So every phase that can runs on one P, where
// its speed does not depend on the second vCPU. Two phases keep two:
// serve-mix's open loop, because a simulation must not hold the request
// path's only P for a whole 10 ms preemption slice, and fig-sweep's
// matrices, whose two pool workers would otherwise time-slice one P
// (see sweepE2E).
func setProcs(n int) {
	if c := runtime.NumCPU(); n > c {
		n = c
	}
	runtime.GOMAXPROCS(n)
}
