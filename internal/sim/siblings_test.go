package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"soemt/internal/core"
	"soemt/internal/obs"
)

// Sibling-scope suite (DESIGN.md §17): a run that restores a sibling's
// fork snapshot, or returns a copy of a sibling's Result, must produce
// exactly the JSON an independent run without a scope produces. JSON
// is the comparison because it is what the result cache stores and the
// golden suites hash, and because it tells a nil slice from an empty
// one. CI runs these under -race.

// siblingPolicies are the quota policies of one sibling family: the
// paper's F levels plus the time-share baseline.
func siblingPolicies(quotaCycles float64) []core.Policy {
	return []core.Policy{
		core.EventOnly{},
		core.Fairness{F: 0.25},
		core.Fairness{F: 0.5},
		core.Fairness{F: 1},
		core.TimeShare{QuotaCycles: quotaCycles},
	}
}

// withPolicy returns base under policy p.
func withPolicy(base Spec, p core.Policy) Spec {
	base.Machine.Controller.Policy = p
	return base
}

// independentJSON runs spec without a scope and returns its Result
// JSON.
func independentJSON(t *testing.T, spec Spec) []byte {
	t.Helper()
	spec.Siblings = nil
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("independent run: %v", err)
	}
	return mustResultJSON(t, res)
}

// reuseCounts returns a registry's sibling reuse counters.
func reuseCounts(reg *obs.Registry) (prefix, result uint64) {
	return reg.Counter("sim.siblings.prefix_reuse").Load(), reg.Counter("sim.siblings.result_reuse").Load()
}

// checkSiblingFamily runs base under every policy through one scope,
// in an order shuffled by seed, and compares each Result with an
// independent run. Every run after the first must reuse the scope
// (restore its snapshot or a whole Result).
func checkSiblingFamily(t *testing.T, base Spec, policies []core.Policy, seed int64) *Siblings {
	t.Helper()
	want := make([][]byte, len(policies))
	for i, p := range policies {
		want[i] = independentJSON(t, withPolicy(base, p))
	}
	scope := new(Siblings)
	reg := obs.NewRegistry()
	for _, i := range rand.New(rand.NewSource(seed)).Perm(len(policies)) {
		spec := withPolicy(base, policies[i])
		spec.Siblings = scope
		spec.Obs = &obs.Observer{Metrics: reg}
		res, err := Run(spec)
		if err != nil {
			t.Fatalf("%s: scoped run: %v", policies[i].Name(), err)
		}
		if got := mustResultJSON(t, res); !bytes.Equal(got, want[i]) {
			t.Errorf("%+v: scoped Result differs from an independent run\nscoped:      %s\nindependent: %s",
				policies[i], firstDiff(got, want[i]), firstDiffOther(got, want[i]))
		}
	}
	prefix, result := reuseCounts(reg)
	if prefix+result != uint64(len(policies)-1) {
		t.Errorf("prefix_reuse %d + result_reuse %d, want %d (every sibling after the first)",
			prefix, result, len(policies)-1)
	}
	t.Logf("prefix_reuse=%d result_reuse=%d", prefix, result)
	return scope
}

// forks returns the scope's families' fork snapshots.
func forks(s *Siblings) []*fork {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*fork
	for _, fam := range s.families {
		if fam.fork != nil {
			out = append(out, fam.fork)
		}
	}
	return out
}

// TestSiblingsSeedGoldenPairs covers every two-thread shape the seed
// golden suite pins: missy and non-missy pairs, a same-benchmark pair,
// injected events, measured miss latency with L1 switching, counted
// misses with smoothing and naive deficits.
func TestSiblingsSeedGoldenPairs(t *testing.T) {
	seed := int64(0)
	for name, spec := range diffCells() {
		if len(spec.Threads) != 2 {
			continue
		}
		name, spec := name, spec
		seed++
		seed := seed
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			checkSiblingFamily(t, spec, siblingPolicies(20_000), seed)
		})
	}
}

// squeezedSpec is fuzzedSpec with Δ squeezed below the timing
// warmup's shortest possible length (Warm instructions at the
// pipeline's retire width), so the first policy consultation — the
// fork point — falls inside the warmup.
func squeezedSpec(rng *rand.Rand, n int) Spec {
	s := fuzzedSpec(rng, n)
	c := &s.Machine.Controller
	c.Delta = 600 + uint64(rng.Intn(7))*100
	if c.MaxCyclesQuota > 0 {
		c.MaxCyclesQuota = c.Delta/uint64(n) - 50
	}
	return s
}

// TestSiblingsSqueezedDelta runs sibling families over fuzzed specs
// (N = 2 and N = 4, injected events, max-cycles quotas) whose fork
// point lies inside the timing warmup, so restored runs resume the
// warmup mid-phase.
func TestSiblingsSqueezedDelta(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, n := range []int{2, 4} {
			seed, n := seed, n
			t.Run(fmtCell(seed, n), func(t *testing.T) {
				t.Parallel()
				base := squeezedSpec(rand.New(rand.NewSource(seed^int64(n)<<32)), n)
				if base.Scale.Warm <= base.Machine.Controller.Delta*uint64(base.Machine.Pipeline.RetireWidth) {
					t.Fatalf("Δ %d does not fall inside a %d-instruction warmup", base.Machine.Controller.Delta, base.Scale.Warm)
				}
				scope := checkSiblingFamily(t, base, siblingPolicies(5_000), seed)
				fs := forks(scope)
				if len(fs) != 1 || !fs[0].midWarmup {
					t.Fatalf("want one mid-warmup fork, got %d forks", len(fs))
				}
			})
		}
	}
}

// TestSiblingsIneligiblePolicies: Granter and Culler policies act on
// the machine outside Quotas (grant order and culling, before the first
// sample too), so they never join a scope — not even one whose family
// an eligible sibling has already seeded.
func TestSiblingsIneligiblePolicies(t *testing.T) {
	base := squeezedSpec(rand.New(rand.NewSource(7)), 2)
	scope := new(Siblings)
	seeder := withPolicy(base, core.EventOnly{})
	seeder.Siblings = scope
	if _, err := Run(seeder); err != nil {
		t.Fatal(err)
	}
	for _, p := range []core.Policy{
		core.WFQGrant{Weights: []float64{1, 3}},
		core.Malthusian{MinAggFrac: 1, ProbeEvery: 2},
		core.GroupedFairness{F: 1},
	} {
		reg := obs.NewRegistry()
		spec := withPolicy(base, p)
		spec.Siblings = scope
		spec.Obs = &obs.Observer{Metrics: reg}
		res, err := Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if prefix, result := reuseCounts(reg); prefix+result != 0 {
			t.Errorf("%s reused the scope (prefix %d, result %d)", p.Name(), prefix, result)
		}
		if got, want := mustResultJSON(t, res), independentJSON(t, spec); !bytes.Equal(got, want) {
			t.Errorf("%s: scoped Result differs from an independent run: %s", p.Name(), firstDiff(got, want))
		}
	}
	if n := len(scope.families); n != 1 {
		t.Errorf("scope has %d families, want only the EventOnly seeder's", n)
	}
}

// TestSiblingsTracedRuns: a traced run's trace must cover the whole
// run, so it never restores or reuses; it may still seed the scope for
// untraced siblings.
func TestSiblingsTracedRuns(t *testing.T) {
	base := withPolicy(squeezedSpec(rand.New(rand.NewSource(11)), 2), core.EventOnly{})
	want := independentJSON(t, base)

	run := func(scope *Siblings, traced bool) (*obs.Tracer, *obs.Registry) {
		t.Helper()
		spec := base
		spec.Siblings = scope
		reg := obs.NewRegistry()
		spec.Obs = &obs.Observer{Metrics: reg}
		if traced {
			spec.Obs.Trace = obs.NewTracer(1 << 16)
		}
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := mustResultJSON(t, res); !bytes.Equal(got, want) {
			t.Errorf("traced=%v: Result differs from an independent run: %s", traced, firstDiff(got, want))
		}
		return spec.Obs.Trace, reg
	}

	// An identical untraced sibling would reuse the whole Result.
	scope := new(Siblings)
	run(scope, false)
	tr, reg := run(scope, true)
	if prefix, result := reuseCounts(reg); prefix+result != 0 {
		t.Errorf("traced run reused the scope (prefix %d, result %d)", prefix, result)
	}
	if tr.Len() == 0 {
		t.Error("traced run recorded no events")
	}

	// A traced run seeds a fresh scope like any other.
	scope = new(Siblings)
	run(scope, true)
	if _, reg := run(scope, false); reg.Counter("sim.siblings.result_reuse").Load() != 1 {
		t.Error("an untraced sibling did not reuse the traced seeder's Result")
	}
}

// TestSiblingsConcurrentScope: two goroutines share one scope. Either
// may seed the family; every Result must still match an independent
// run (and -race must see no conflicting access).
func TestSiblingsConcurrentScope(t *testing.T) {
	base := squeezedSpec(rand.New(rand.NewSource(3)), 2)
	policies := siblingPolicies(5_000)
	want := make([][]byte, len(policies))
	for i, p := range policies {
		want[i] = independentJSON(t, withPolicy(base, p))
	}
	scope := new(Siblings)
	var wg sync.WaitGroup
	for g, order := range [][]int{{0, 1, 2, 3, 4}, {3, 4, 0, 2, 1}} {
		wg.Add(1)
		go func(g int, order []int) {
			defer wg.Done()
			for _, i := range order {
				spec := withPolicy(base, policies[i])
				spec.Siblings = scope
				res, err := Run(spec)
				if err != nil {
					t.Errorf("goroutine %d, %s: %v", g, policies[i].Name(), err)
					return
				}
				b, err := json.Marshal(res)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if !bytes.Equal(b, want[i]) {
					t.Errorf("goroutine %d, %+v: Result differs from an independent run: %s",
						g, policies[i], firstDiff(b, want[i]))
				}
			}
		}(g, order)
	}
	wg.Wait()
}

// TestSiblingsMachineCopy checks the layers' state-copy methods as a
// whole: a fresh machine that copies a running one (stopped mid-run,
// with in-flight micro-ops, fills, stalls and samples) must equal it
// field for field, and the two must stay equal — sharing no mutable
// state — as both run on.
func TestSiblingsMachineCopy(t *testing.T) {
	spec := squeezedSpec(rand.New(rand.NewSource(5)), 4)
	spec.Machine.Controller.Policy = core.Fairness{F: 1}
	build := func() *machine {
		m, err := buildMachine(nil, spec, spec.Machine.Controller)
		if err != nil {
			t.Fatal(err)
		}
		m.ctl.SetEngine(core.EngineFastForward)
		return m
	}
	src := build()
	for i, ts := range spec.Threads {
		if err := warmCaches(src.hier, src.gens[i], ts.StartSeq, spec.Scale.CacheWarm, func() error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	src.hier.ResetTiming()
	src.ctl.Advance(spec.Scale.Warm, 0, 0, 7_777)

	dst := build()
	dst.copyFrom(src)
	if path, ok := sameState(reflect.ValueOf(dst), reflect.ValueOf(src), "machine"); !ok {
		t.Fatalf("copy differs from its source at %s", path)
	}
	for step := 0; step < 3; step++ {
		dst.ctl.Advance(spec.Scale.Measure, 0, 0, 5_000)
		src.ctl.Advance(spec.Scale.Measure, 0, 0, 5_000)
		if path, ok := sameState(reflect.ValueOf(dst), reflect.ValueOf(src), "machine"); !ok {
			t.Fatalf("after %d more slices the copy diverged at %s", step+1, path)
		}
	}
}

// sameState compares two values field by field, following pointers
// and reading unexported fields. Nil and empty slices compare equal (a
// copy may hold either), functions are skipped, and a slice's unused
// capacity is ignored.
func sameState(a, b reflect.Value, path string) (string, bool) {
	if a.Kind() != b.Kind() {
		return path + " (kind)", false
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return path, a.IsNil() == b.IsNil()
		}
		if a.Kind() == reflect.Interface && a.Elem().Type() != b.Elem().Type() {
			return path + " (dynamic type)", false
		}
		return sameState(a.Elem(), b.Elem(), path)
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if p, ok := sameState(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); !ok {
				return p, false
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s (len %d vs %d)", path, a.Len(), b.Len()), false
		}
		for i := 0; i < a.Len(); i++ {
			if p, ok := sameState(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); !ok {
				return p, false
			}
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			return path + " (map len)", false
		}
		for _, k := range a.MapKeys() {
			bv := b.MapIndex(k)
			if !bv.IsValid() {
				return path + " (map key)", false
			}
			if p, ok := sameState(a.MapIndex(k), bv, path+"[key]"); !ok {
				return p, false
			}
		}
	case reflect.Func:
	case reflect.Bool:
		return path, a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return path, a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return path, a.Uint() == b.Uint()
	case reflect.Float32, reflect.Float64:
		return path, a.Float() == b.Float()
	case reflect.String:
		return path, a.String() == b.String()
	default:
		return path + " (unhandled kind " + a.Kind().String() + ")", false
	}
	return path, true
}

// TestResultCloneKeepsNilAndEmpty: a reused Result is a deep copy whose
// JSON matches the stored one's, null versus [] included.
func TestResultCloneKeepsNilAndEmpty(t *testing.T) {
	for _, r := range []*Result{
		{},
		{Threads: []ThreadResult{}, Samples: []core.Sample{}},
		{Threads: []ThreadResult{{Name: "a"}}, Samples: []core.Sample{{Cycle: 1}, {Cycle: 2, Threads: []core.SampleThread{}}, {Cycle: 3, Threads: []core.SampleThread{{Quota: 4}}}}},
	} {
		c := r.clone()
		if got, want := mustResultJSON(t, c), mustResultJSON(t, r); !bytes.Equal(got, want) {
			t.Errorf("clone JSON %s, want %s", got, want)
		}
		if len(r.Samples) == 3 {
			c.Samples[2].Threads[0].Quota = 99
			c.Threads[0].Name = "b"
			if r.Samples[2].Threads[0].Quota != 4 || r.Threads[0].Name != "a" {
				t.Error("clone shares memory with the original")
			}
		}
	}
}

// TestRunContextPhaseCounters: with a registry attached, every run adds
// its protocol phases' wall time to sim.phase.*_ns.
func TestRunContextPhaseCounters(t *testing.T) {
	reg := obs.NewRegistry()
	spec := diffSpec([]string{"gcc", "eon"}, core.EventOnly{}, nil)
	spec.Obs = &obs.Observer{Metrics: reg}
	if _, err := Run(spec); err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"build", "cache_warm", "timing_warm", "measure"} {
		if reg.Counter("sim.phase."+phase+"_ns").Load() == 0 {
			t.Errorf("sim.phase.%s_ns not counted", phase)
		}
	}
}
