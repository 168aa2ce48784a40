package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
)

// profiler records a CPU profile of the traced run.
type profiler struct {
	buf bytes.Buffer
}

func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile, writes it and a per-package table to dir as
// <name>.cpu.pprof and <name>.top.txt, and returns each package's
// share of the flat samples.
func (p *profiler) stop(dir, name string) (map[string]float64, error) {
	pprof.StopCPUProfile()
	path := filepath.Join(dir, name+".cpu.pprof")
	if err := os.WriteFile(path, p.buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	flat, err := flatByFunction(path)
	if err != nil {
		return nil, err
	}
	byPkg := map[string]float64{}
	total := 0.0
	for fn, n := range flat {
		byPkg[packageOf(fn)] += n
		total += n
	}
	if total == 0 {
		return nil, errors.New("cpu profile: no samples")
	}
	pkgs := make([]string, 0, len(byPkg))
	for k := range byPkg {
		byPkg[k] /= total
		pkgs = append(pkgs, k)
	}
	sort.Slice(pkgs, func(i, j int) bool { return byPkg[pkgs[i]] > byPkg[pkgs[j]] })
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: flat CPU samples by package (%.0f ms of samples)\n", name, total)
	for i, k := range pkgs {
		if i == 20 {
			break
		}
		fmt.Fprintf(&b, "%6.2f%%  %s\n", 100*byPkg[k], k)
	}
	if err := os.WriteFile(filepath.Join(dir, name+".top.txt"), []byte(b.String()), 0o644); err != nil {
		return nil, err
	}
	return byPkg, nil
}

// flatByFunction returns the flat CPU milliseconds of every function
// in the profile at path, as `go tool pprof -top` lists them: a
// sample counts for its innermost frame, an inlined function being a
// frame of its own.
func flatByFunction(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-unit=ms", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	flat := map[string]float64{}
	rows := false
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if !rows {
			rows = len(f) > 0 && f[0] == "flat"
			continue
		}
		// flat flat% sum% cum cum% function [(inline)]
		if len(f) < 6 {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("go tool pprof: row %q: %w", line, err)
		}
		if v > 0 {
			flat[f[5]] += v
		}
	}
	if !rows {
		return nil, errors.New("go tool pprof: no table in its output")
	}
	return flat, nil
}

// packageOf returns the import path of a profiled function name such
// as "soemt/internal/mem.(*Hierarchy).AccessData". Type arguments of
// a generic function ("arena.Slice[go.shape.[]soemt/...]") may hold
// other paths, so they are cut off first. Assembly routines named
// without a package ("aeshashbody", "memeqbody") count as runtime.
func packageOf(fn string) string {
	fn, _, _ = strings.Cut(fn, "[")
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return "runtime"
}

// folded maps helper packages to the layer whose work they do: the
// generator draws from rng and builds isa micro-ops; the gateway's
// routing and breakers live in cluster.
var folded = map[string]string{"rng": "workload", "isa": "workload", "cluster": "proxy"}

// layerShares folds package shares into the layers the per-layer
// metrics name: the simulator's packages, the Go runtime (GC and
// scheduler), and the HTTP stack with its JSON encoding.
func layerShares(byPkg map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for pkg, v := range byPkg {
		switch {
		case strings.HasPrefix(pkg, "soemt/internal/"):
			l := strings.TrimPrefix(pkg, "soemt/internal/")
			if f, ok := folded[l]; ok {
				l = f
			}
			out[l] += v
		case strings.HasPrefix(pkg, "net") || pkg == "encoding/json" || pkg == "reflect" ||
			pkg == "bufio" || pkg == "internal/poll" || strings.HasSuffix(pkg, "syscall") ||
			strings.HasPrefix(pkg, "vendor/golang.org/x/net"):
			// Network reads and writes end in the syscall packages.
			out["http"] += v
		case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/"):
			out["runtime"] += v
		}
	}
	return out
}
