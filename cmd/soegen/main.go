// Command soegen expands and replays declarative workload specs
// (internal/workload/spec) and fits new specs to recorded traces.
//
// Usage:
//
//	soegen -validate spec.yaml
//	    Parse and validate a spec; exit non-zero with an actionable
//	    error on the first problem.
//
//	soegen -expand spec.yaml [-format table|csv|sweep-json]
//	    Expand the spec into its distinct simulation cells (the
//	    pair/sweep matrix) with the request share each cell carries.
//	    sweep-json emits a /v1/sweep request body of the replayable
//	    pairs.
//
//	soegen -schedule spec.yaml
//	    Print the full deterministic request schedule as CSV.
//	    Identical (spec, seed) always yields byte-identical output.
//
//	soegen -replay spec.yaml -addr http://host:port [-speed X]
//	    Replay the schedule open-loop against a live soeserve or
//	    soeproxy, honoring the 429/503 Retry-After contract, and print
//	    a machine-parsable summary (ok=, rate_limited=, errors=,
//	    distinct_specs=).
//
//	soegen -fit trace.lit -o fitted.yaml [-rate R] [-fit-duration D]
//	    Calibrate a synthetic spec against a recorded trace: fit a
//	    profile matching the trace's IPM / no-miss IPC / CPM and an
//	    arrival process matching its event-gap moments, then write the
//	    fitted spec (inline profile) as YAML.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"sync"
	"syscall"
	"time"

	"soemt/internal/cli"
	"soemt/internal/experiments"
	"soemt/internal/serve"
	"soemt/internal/sim"
	"soemt/internal/trace"
	"soemt/internal/workload/spec"
)

func main() {
	var (
		validate = flag.String("validate", "", "spec file to validate")
		expand   = flag.String("expand", "", "spec file to expand into its cell matrix")
		format   = flag.String("format", "table", "expansion format: table, csv or sweep-json")
		schedule = flag.String("schedule", "", "spec file to print as a CSV request schedule")
		replay   = flag.String("replay", "", "spec file to replay against a live endpoint")
		addr     = flag.String("addr", "http://127.0.0.1:8080", "soeserve/soeproxy base URL for -replay")
		speed    = flag.Float64("speed", 1, "replay time compression factor (2 = twice as fast)")
		retries  = flag.Int("max-retries", 8, "max 429/503 bounces per submission during replay")
		fit      = flag.String("fit", "", "trace file to calibrate a synthetic spec against")
		out      = flag.String("o", "", "output file for -fit (default stdout)")
		rate     = flag.Float64("rate", 5, "request rate of the fitted spec (req/s)")
		fitDur   = flag.Duration("fit-duration", 10*time.Second, "duration of the fitted spec")
		fitScale string
	)
	cli.ScaleVar(flag.CommandLine, &fitScale, "fit-scale", "tiny")
	flag.Parse()

	var err error
	switch {
	case *validate != "":
		err = runValidate(*validate)
	case *expand != "":
		err = runExpand(*expand, *format)
	case *schedule != "":
		err = runSchedule(*schedule)
	case *replay != "":
		err = runReplay(*replay, *addr, *speed, *retries)
	case *fit != "":
		err = runFit(*fit, *out, *rate, *fitDur, fitScale)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		cli.Fatal("soegen", err)
	}
}

func load(path string) (*spec.Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return spec.Parse(data)
}

func runValidate(path string) error {
	s, err := load(path)
	if err != nil {
		return err
	}
	reqs, err := s.Schedule()
	if err != nil {
		return err
	}
	wire := "replayable over the wire"
	if err := s.Replayable(); err != nil {
		wire = "matrix expansion only (inline profiles or overlays present)"
	}
	fmt.Printf("spec %s: ok — %d clients, %d requests over %v, %s\n",
		s.Name, len(s.Clients), len(reqs), s.Duration, wire)
	return nil
}

func runExpand(path, format string) error {
	s, err := load(path)
	if err != nil {
		return err
	}
	cells, err := s.Matrix()
	if err != nil {
		return err
	}
	switch format {
	case "table":
		fmt.Printf("%-24s %8s %7s %6s %s\n", "CELL", "REQS", "SHARE", "F", "NOTES")
		for _, c := range cells {
			name := c.Pair
			if name == "" {
				name = "bench:" + c.Bench
			}
			notes := ""
			if c.Overlaid {
				notes = "overlaid (local only)"
			}
			fmt.Printf("%-24s %8d %6.1f%% %6g %s\n", name, c.Requests, 100*c.Share, c.F, notes)
		}
	case "csv":
		fmt.Println("pair,bench,f,scale,requests,share,overlaid")
		for _, c := range cells {
			fmt.Printf("%s,%s,%g,%s,%d,%.6f,%v\n",
				c.Pair, c.Bench, c.F, c.Scale, c.Requests, c.Share, c.Overlaid)
		}
	case "sweep-json":
		pairs, skipped, err := s.SweepPairs()
		if err != nil {
			return err
		}
		if skipped > 0 {
			fmt.Fprintf(os.Stderr, "soegen: %d cell(s) skipped (bench-only or overlaid)\n", skipped)
		}
		body, err := json.MarshalIndent(serve.SweepRequest{Pairs: pairs, Scale: s.ScaleOrDefault()}, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(body))
	default:
		return fmt.Errorf("unknown -format %q (want table, csv or sweep-json)", format)
	}
	return nil
}

func runSchedule(path string) error {
	s, err := load(path)
	if err != nil {
		return err
	}
	reqs, err := s.Schedule()
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(spec.EncodeSchedule(reqs))
	return err
}

// replayStats aggregates submission outcomes across the dispatch
// goroutines.
type replayStats struct {
	mu          sync.Mutex
	ok          int
	coalesced   int
	rateLimited int
	errors      int
	retries     int
	statuses    map[int]int
}

func (st *replayStats) record(out serve.SubmitOutcome, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.statuses == nil {
		st.statuses = map[int]int{}
	}
	st.retries += out.Retries
	switch {
	case err != nil:
		st.errors++
	case out.Accepted():
		st.ok++
		if out.Coalesced {
			st.coalesced++
		}
		st.statuses[out.Status]++
	case out.Status == 429:
		st.rateLimited++
		st.statuses[out.Status]++
	default:
		st.errors++
		st.statuses[out.Status]++
	}
}

func runReplay(path, addr string, speed float64, maxRetries int) error {
	if speed <= 0 {
		return fmt.Errorf("-speed must be positive, got %v", speed)
	}
	s, err := load(path)
	if err != nil {
		return err
	}
	if err := s.Replayable(); err != nil {
		return err
	}
	reqs, err := s.Schedule()
	if err != nil {
		return err
	}
	distinct := map[string]bool{}
	for _, r := range reqs {
		distinct[r.Key()] = true
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	client := &serve.Client{BaseURL: addr, MaxRetries: maxRetries}
	st := &replayStats{}
	var wg sync.WaitGroup

	fmt.Printf("replaying %s: %d requests (%d distinct specs) over %v at %gx against %s\n",
		s.Name, len(reqs), len(distinct), s.Duration, speed, addr)
	start := time.Now()
	for _, r := range reqs {
		// Open-loop dispatch: fire at the scheduled instant regardless
		// of how earlier submissions fared (slow responses must not
		// throttle offered load — that is the point of open-loop).
		due := time.Duration(float64(r.At) / speed)
		if wait := due - time.Since(start); wait > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(wait):
			}
		}
		if ctx.Err() != nil {
			break
		}
		rq := serve.RunRequest{Pair: r.Pair, Bench: r.Bench, F: r.F, Scale: r.Scale, Tier: r.Tier}
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := client.SubmitRun(ctx, rq)
			st.record(out, err)
		}()
	}
	wg.Wait()
	wall := time.Since(start).Round(time.Millisecond)

	st.mu.Lock()
	defer st.mu.Unlock()
	var codes []int
	for c := range st.statuses {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	fmt.Printf("replay %s: requests=%d ok=%d coalesced=%d rate_limited=%d errors=%d retries=%d distinct_specs=%d wall=%v\n",
		s.Name, len(reqs), st.ok, st.coalesced, st.rateLimited, st.errors, st.retries, len(distinct), wall)
	for _, c := range codes {
		fmt.Printf("  status %d: %d\n", c, st.statuses[c])
	}
	if ctx.Err() != nil {
		return fmt.Errorf("interrupted after %v", wall)
	}
	if st.errors > 0 {
		return fmt.Errorf("%d submission(s) ended outside {2xx, 429}", st.errors)
	}
	return nil
}

func runFit(tracePath, outPath string, rate float64, dur time.Duration, scaleName string) error {
	f, err := os.Open(tracePath)
	if err != nil {
		return err
	}
	tr, err := trace.Decode(f)
	f.Close()
	if err != nil {
		return err
	}
	sc, err := sim.ScaleByName(scaleName)
	if err != nil {
		return err
	}
	opts := experiments.DefaultOptions()
	opts.Scale = sc
	r := experiments.NewRunner(opts)

	fit, err := experiments.FitTrace(context.Background(), r, tr)
	if err != nil {
		return err
	}
	fmt.Fprint(os.Stderr, fit.Report)
	if !fit.Report.Within() {
		fmt.Fprintln(os.Stderr, "soegen: warning: fit outside tolerance; spec written anyway")
	}
	name := "fitted-" + tr.Profile.Name
	doc := fit.Spec(name, rate, dur).Encode()
	if outPath == "" {
		_, err = os.Stdout.Write(doc)
		return err
	}
	return os.WriteFile(outPath, doc, 0o644)
}
