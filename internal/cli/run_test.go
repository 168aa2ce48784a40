package cli

import (
	"context"
	"errors"
	"flag"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"soemt/internal/experiments"
)

// Register defines exactly the selected flags, each with its default.
func TestRegisterDefinesSelectedFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	rf := Register(fs, "tiny", CacheDir|Timeout)
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name+"="+f.DefValue) })
	want := []string{"cache-dir=", "scale=tiny", "timeout=0s"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("flags = %v, want %v", names, want)
	}
	if err := fs.Parse([]string{"-scale", "paper", "-cache-dir", "d", "-timeout", "3s"}); err != nil {
		t.Fatal(err)
	}
	if rf.Scale != "paper" || rf.CacheDir != "d" || rf.Timeout != 3*time.Second {
		t.Fatalf("parsed %+v", *rf)
	}

	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	Register(fs, "", Workers|Metrics|Heartbeat)
	names = nil
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	if want := []string{"heartbeat", "metrics", "workers"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("flags = %v, want %v (no -scale without a default)", names, want)
	}
}

func TestSplitList(t *testing.T) {
	got := SplitList(" http://a:1, ,http://b:2,")
	if want := []string{"http://a:1", "http://b:2"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("SplitList = %q, want %q", got, want)
	}
	if got := SplitList(""); got != nil {
		t.Fatalf(`SplitList("") = %q, want nil`, got)
	}
}

func TestParseFloats(t *testing.T) {
	got, err := ParseFloats("1, 2.5,600")
	if err != nil || !reflect.DeepEqual(got, []float64{1, 2.5, 600}) {
		t.Fatalf("ParseFloats = %v, %v", got, err)
	}
	if got, err := ParseFloats(""); got != nil || err != nil {
		t.Fatalf(`ParseFloats("") = %v, %v; want nil, nil`, got, err)
	}
	if _, err := ParseFloats("1,x"); err == nil || !strings.Contains(err.Error(), `bad value "x"`) {
		t.Fatalf("ParseFloats(1,x) error = %v", err)
	}
}

// captureStderr runs fn with os.Stderr redirected and returns what it
// wrote.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stderr
	os.Stderr = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	defer func() {
		os.Stderr = old
	}()
	fn()
	w.Close()
	return <-out
}

// The session's one exit path: success clears the marker, an interrupt
// writes it and exits 130, an error exits 1, and -metrics prints in
// every case.
func TestSessionExitPaths(t *testing.T) {
	dir := t.TempDir()
	rf := &RunFlags{Scale: "tiny", CacheDir: dir, Metrics: true}
	marker := func() bool {
		c, err := experiments.NewCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		_, ok := c.Interrupted()
		return ok
	}

	var code int
	ctx, cancel := context.WithCancel(context.Background())
	stderr := captureStderr(t, func() {
		code = rf.run(ctx, "prog", func(s *Session) error {
			if s.Scale.Measure == 0 || s.Cache.Dir() != dir {
				t.Errorf("session scale %+v, cache dir %q", s.Scale, s.Cache.Dir())
			}
			cancel() // the signal
			<-s.Ctx.Done()
			return s.Ctx.Err()
		})
	})
	if code != ExitInterrupted || !marker() {
		t.Fatalf("interrupt: exit %d, marker %v; want %d and a marker", code, marker(), ExitInterrupted)
	}
	for _, want := range []string{"prog: metrics: ", "prog: interrupted; completed simulations are cached"} {
		if !strings.Contains(stderr, want) {
			t.Fatalf("interrupt stderr lacks %q:\n%s", want, stderr)
		}
	}

	stderr = captureStderr(t, func() {
		code = rf.run(context.Background(), "prog", func(*Session) error { return errors.New("boom") })
	})
	if code != 1 || !marker() {
		t.Fatalf("error: exit %d, marker %v; want 1 and the marker kept", code, marker())
	}
	for _, want := range []string{"previous run over", "prog: metrics: ", "prog: boom\n"} {
		if !strings.Contains(stderr, want) {
			t.Fatalf("error stderr lacks %q:\n%s", want, stderr)
		}
	}

	stderr = captureStderr(t, func() {
		code = rf.run(context.Background(), "prog", func(*Session) error { return nil })
	})
	if code != 0 || marker() {
		t.Fatalf("success: exit %d, marker %v; want 0 and no marker", code, marker())
	}
	if !strings.Contains(stderr, "prog: metrics: ") {
		t.Fatalf("success stderr lacks the metrics line:\n%s", stderr)
	}

	// A signal after the body finished still reports the interruption,
	// but the completed run clears the marker.
	ctx, cancel = context.WithCancel(context.Background())
	captureStderr(t, func() {
		code = rf.run(ctx, "prog", func(*Session) error { cancel(); return nil })
	})
	if code != ExitInterrupted || marker() {
		t.Fatalf("late signal: exit %d, marker %v; want %d and no marker", code, marker(), ExitInterrupted)
	}

	bad := &RunFlags{Scale: "huge"}
	captureStderr(t, func() {
		code = bad.run(context.Background(), "prog", func(*Session) error {
			t.Error("body ran with an unknown scale")
			return nil
		})
	})
	if code != 1 {
		t.Fatalf("unknown scale: exit %d, want 1", code)
	}
}
