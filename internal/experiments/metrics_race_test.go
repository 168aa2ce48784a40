package experiments

import (
	"context"
	"sync"
	"testing"
	"time"

	"soemt/internal/sim"
)

// TestMetricsReadableWhileMatrixRuns is the -race regression test for
// reading the engine's instrumentation mid-run (the soesweep/soefig
// -metrics and heartbeat paths): RunnerMetrics snapshots and registry
// dumps must be safe while the worker pool is still simulating. Before
// the metrics moved onto the observability registry's atomic counters
// there was no test pinning this down.
func TestMetricsReadableWhileMatrixRuns(t *testing.T) {
	r := stubRunner(t, func(sim.Spec) (*sim.Result, error) {
		time.Sleep(200 * time.Microsecond) // keep the pool busy while readers hammer
		return fakeResult(2), nil
	})
	r.Workers = 4

	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				m := r.Metrics()
				_ = m.String()
				_ = m.CacheHits()
				for _, row := range r.Observability().Snapshot() {
					_ = row
				}
				_ = r.Observability().Gauge("pool.active").Load()
			}
		}()
	}

	if _, err := r.RunAllContext(context.Background()); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	close(done)
	wg.Wait()

	m := r.Metrics()
	if m.RunsCompleted == 0 || m.RunsStarted < m.RunsCompleted {
		t.Fatalf("implausible final metrics: %+v", m)
	}
	if r.Observability().Gauge("pool.workers").Load() != 4 {
		t.Fatalf("pool.workers gauge = %d, want 4", r.Observability().Gauge("pool.workers").Load())
	}
	if r.Observability().Gauge("pool.active").Load() != 0 {
		t.Fatalf("pool.active gauge must return to 0 after the run")
	}
}
