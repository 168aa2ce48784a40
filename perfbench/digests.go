package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"

	"soemt/internal/sim"
)

// defaultSeed is the seed whose result digests are pinned in
// digests.json. Any other seed has its reference digests computed
// after the timed part of the run.
const defaultSeed = 1

// refEngine produces every reference digest: the engine that executes
// each simulated cycle individually.
const refEngine = "cycle-by-cycle"

//go:embed digests.json
var pinnedJSON []byte

// pinned maps a result key (spec fingerprint hash, or "sweep:"+matrix
// hash) to the sha256 digest the reference engine produced for it.
func loadPinned() (map[string]string, error) {
	m := map[string]string{}
	if err := json.Unmarshal(pinnedJSON, &m); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return m, nil
}

// checker compares observed result digests against the reference: the
// pinned digest when the key is pinned, otherwise the one the key's
// reference function computes after the timed part of the run.
type checker struct {
	pinned map[string]string
	mu     sync.Mutex
	seen   map[string][]string // key -> observed digests, in order
	ref    map[string]func() (string, error)
}

func newChecker() (*checker, error) {
	p, err := loadPinned()
	if err != nil {
		return nil, err
	}
	return &checker{pinned: p, seen: map[string][]string{}, ref: map[string]func() (string, error){}}, nil
}

// observe records one produced digest under key, with the function
// that computes key's reference digest if it is not pinned.
func (c *checker) observe(key, digest string, ref func() (string, error)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seen[key] = append(c.seen[key], digest)
	if _, ok := c.ref[key]; !ok {
		c.ref[key] = ref
	}
}

// mismatches resolves every observed key's reference digest (pinned
// or freshly computed, two at a time) and returns how many observed
// digests differ from it, the reference digests by key, and how many
// keys needed computing.
func (c *checker) mismatches() (bad int, want map[string]string, computed int, err error) {
	keys := make([]string, 0, len(c.seen))
	for k := range c.seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want = make(map[string]string, len(keys))
	var todo []string
	for _, k := range keys {
		if d, ok := c.pinned[k]; ok {
			want[k] = d
		} else {
			todo = append(todo, k)
		}
	}
	results := make([]string, len(todo))
	errs := make([]error, len(todo))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for i, k := range todo {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, fn func() (string, error)) {
			defer wg.Done()
			defer func() { <-sem }()
			results[i], errs[i] = fn()
		}(i, c.ref[k])
	}
	wg.Wait()
	for i, k := range todo {
		if errs[i] != nil {
			return 0, nil, 0, fmt.Errorf("reference for %s: %w", k[:12], errs[i])
		}
		want[k] = results[i]
	}
	for _, k := range keys {
		for _, d := range c.seen[k] {
			if d != want[k] {
				bad++
			}
		}
	}
	return bad, want, len(todo), nil
}

// reference returns the spec's result digest under the reference
// engine.
func reference(spec sim.Spec) (string, error) {
	spec.Engine = refEngine
	spec.Obs = nil
	res, err := sim.RunContext(context.Background(), spec)
	if err != nil {
		return "", err
	}
	return resultDigest(res)
}

// writePinned stores digests as the pinned set.
func writePinned(path string, digests map[string]string) error {
	b, err := json.MarshalIndent(digests, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
