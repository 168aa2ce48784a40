// Package cli carries plumbing shared by the soemt command-line
// tools: the shared run flags and the run session (run.go),
// signal-driven cancellation, the conventional interrupt exit code,
// and the interrupt-marker etiquette for persistent result caches
// (mark on interruption, note on resume, clear on completion).
package cli

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"soemt/internal/experiments"
)

// ExitInterrupted is the conventional exit status for a process
// terminated by SIGINT (128 + signal number 2).
const ExitInterrupted = 130

// SignalContext returns a context cancelled by the first SIGINT or
// SIGTERM.
//
// Unlike signal.NotifyContext, default signal disposition is restored
// the moment the first signal lands — not when stop is called — so a
// second signal kills the process immediately: the escape hatch if the
// graceful shutdown itself wedges. (NotifyContext keeps the handler
// registered until stop, silently swallowing every signal after the
// first; a user whose drain hung could not ^C out. See the
// second-signal regression test.)
//
// The returned stop function unregisters the handler and joins the
// watcher goroutine before returning; it is idempotent and safe for
// concurrent use. Every command defers it, so a command that returns
// before any signal arrives leaves no goroutine behind.
func SignalContext() (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		defer close(done)
		select {
		case <-ch:
			// Restore default disposition BEFORE cancelling: anything the
			// cancellation unwinds (flushes, checkpoints) runs with a
			// second signal able to kill the process immediately.
			signal.Stop(ch)
			cancel()
		case <-ctx.Done():
			signal.Stop(ch)
		}
	}()
	stop := func() {
		cancel()
		<-done
	}
	return ctx, stop
}

// Interrupted reports whether err is the cancellation produced by a
// signal arriving on ctx (as opposed to a simulation failure that
// happened while the context was still live).
func Interrupted(ctx context.Context, err error) bool {
	return errors.Is(ctx.Err(), context.Canceled) && errors.Is(err, context.Canceled)
}

// NoteResume prints a notice when the cache directory carries an
// interrupt marker from an earlier run: the rerun warm-resumes from
// every result that run completed.
func NoteResume(prog string, c *experiments.Cache) {
	if note, ok := c.Interrupted(); ok {
		fmt.Fprintf(os.Stderr, "%s: previous run over %s was interrupted (%s); resuming from its completed results\n",
			prog, c.Dir(), strings.TrimSpace(note))
	}
}

// MarkInterrupted records the interruption in the cache directory
// (best effort) so the next invocation over the same -cache-dir knows
// it is resuming an incomplete matrix.
func MarkInterrupted(prog string, c *experiments.Cache, what string) {
	if err := c.MarkInterrupted(what); err != nil {
		fmt.Fprintf(os.Stderr, "%s: write interrupt marker: %v\n", prog, err)
	}
}

// ClearInterrupted removes the marker after a run that completed
// normally (best effort).
func ClearInterrupted(prog string, c *experiments.Cache) {
	if err := c.ClearInterrupted(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: clear interrupt marker: %v\n", prog, err)
	}
}
