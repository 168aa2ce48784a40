package spec

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"soemt/internal/rng"
)

// Request is one scheduled submission: a workload entry resolved for
// one client member at one instant.
type Request struct {
	At     time.Duration // offset from the start of the replay window
	Client string        // "group/member", e.g. "batch/3"
	Pair   string
	Bench  string
	F      float64
	Tier   string
	Scale  string
}

// Key returns the distinct-spec identity of the request: every field
// that changes the simulation soeserve would run. Two requests with
// equal keys coalesce server-side into one engine run — the dedup
// invariant counts distinct keys.
func (r Request) Key() string {
	target := r.Pair
	if target == "" {
		target = "bench:" + r.Bench
	}
	return fmt.Sprintf("%s|f=%g|%s", target, r.F, r.Scale)
}

// Line renders the request as one stable CSV line; the byte-identical
// replay guarantee is asserted over these lines.
func (r Request) Line() string {
	return fmt.Sprintf("%d,%s,%s,%s,%g,%s,%s",
		r.At.Microseconds(), r.Client, r.Pair, r.Bench, r.F, r.Tier, r.Scale)
}

// Schedule expands the spec into its deterministic timed request
// sequence, sorted by arrival time. It is a pure function of the spec
// (including Seed): identical specs yield byte-identical schedules.
func (s *Spec) Schedule() ([]Request, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	scale := s.ScaleOrDefault()
	var out []Request
	for _, c := range s.Clients {
		shares := c.memberShares()
		arrivalRoot := rng.Sub(s.Seed, "arrival|"+c.Name)
		pickRoot := rng.Sub(s.Seed, "pick|"+c.Name)
		weightTotal := 0.0
		for _, e := range c.Workloads {
			weightTotal += e.Weight
		}
		for m := 0; m < c.Count; m++ {
			rate := c.Rate * shares[m]
			if rate <= 0 {
				continue
			}
			arrivalSeed := rng.Uint64At(arrivalRoot, uint64(m))
			pickSeed := rng.Uint64At(pickRoot, uint64(m))
			t := 0.0
			for i := uint64(0); ; i++ {
				t += c.Arrival.interArrival(arrivalSeed, i) / rate
				at := time.Duration(t * float64(time.Second))
				if at >= s.Duration {
					break
				}
				e := pickEntry(c.Workloads, weightTotal, rng.Float64At(pickSeed, i))
				out = append(out, Request{
					At:     at,
					Client: fmt.Sprintf("%s/%d", c.Name, m),
					Pair:   e.Pair,
					Bench:  e.Bench,
					F:      e.F,
					Tier:   e.Tier,
					Scale:  scale,
				})
				if len(out) > maxRequests {
					return nil, fmt.Errorf("spec %s: expansion exceeded %d requests; lower the rates or shorten the duration", s.Name, maxRequests)
				}
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Client < out[j].Client
	})
	return out, nil
}

// pickEntry draws a weighted workload entry with u in [0, 1).
func pickEntry(entries []Entry, total, u float64) Entry {
	target := u * total
	acc := 0.0
	for _, e := range entries {
		acc += e.Weight
		if target < acc {
			return e
		}
	}
	return entries[len(entries)-1]
}

// EncodeSchedule renders a schedule in the stable CSV form used by
// soegen -schedule and the byte-identical replay tests.
func EncodeSchedule(reqs []Request) []byte {
	var b strings.Builder
	b.WriteString("at_us,client,pair,bench,f,tier,scale\n")
	for _, r := range reqs {
		b.WriteString(r.Line())
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// Cell is one distinct simulation in a spec's expansion, with the
// request volume the schedule assigns to it.
type Cell struct {
	Pair     string
	Bench    string
	F        float64
	Scale    string
	Requests int     // scheduled submissions mapping to this cell
	Share    float64 // fraction of all scheduled requests
	// Overlaid is true when at least one generating entry carries a
	// phase overlay or references an inline profile — the cell is
	// expandable locally but not replayable over the wire.
	Overlaid bool
}

// Matrix aggregates the schedule into its distinct simulation cells,
// sorted by request volume (descending) then name — the pair/sweep
// matrix a spec multiplies out to.
func (s *Spec) Matrix() ([]Cell, error) {
	reqs, err := s.Schedule()
	if err != nil {
		return nil, err
	}
	overlaid := s.overlaidTargets()
	byKey := map[string]*Cell{}
	for _, r := range reqs {
		c, ok := byKey[r.Key()]
		if !ok {
			c = &Cell{Pair: r.Pair, Bench: r.Bench, F: r.F, Scale: r.Scale}
			c.Overlaid = overlaid[targetOf(r.Pair, r.Bench)]
			byKey[r.Key()] = c
		}
		c.Requests++
	}
	out := make([]Cell, 0, len(byKey))
	for _, c := range byKey {
		c.Share = float64(c.Requests) / float64(len(reqs))
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Requests != out[j].Requests {
			return out[i].Requests > out[j].Requests
		}
		ki := out[i].Pair + out[i].Bench
		kj := out[j].Pair + out[j].Bench
		if ki != kj {
			return ki < kj
		}
		return out[i].F < out[j].F
	})
	return out, nil
}

func targetOf(pair, bench string) string {
	if pair != "" {
		return pair
	}
	return "bench:" + bench
}

// overlaidTargets maps pair/bench targets that any entry decorates
// with a phase overlay or an inline profile.
func (s *Spec) overlaidTargets() map[string]bool {
	out := map[string]bool{}
	for _, c := range s.Clients {
		for _, e := range c.Workloads {
			mark := len(e.Phases) > 0
			for _, n := range e.names() {
				if _, inline := s.Profiles[n]; inline {
					mark = true
				}
			}
			if mark {
				out[targetOf(e.Pair, e.Bench)] = true
			}
		}
	}
	return out
}

// SweepPairs returns the distinct replayable pair names of the matrix,
// ready to drop into a soeserve /v1/sweep body. Bench-only and
// overlaid cells are skipped (count returned for the caller to
// report).
func (s *Spec) SweepPairs() (pairs []string, skipped int, err error) {
	cells, err := s.Matrix()
	if err != nil {
		return nil, 0, err
	}
	seen := map[string]bool{}
	for _, c := range cells {
		if c.Pair == "" || c.Overlaid {
			skipped++
			continue
		}
		if !seen[c.Pair] {
			seen[c.Pair] = true
			pairs = append(pairs, c.Pair)
		}
	}
	sort.Strings(pairs)
	return pairs, skipped, nil
}
