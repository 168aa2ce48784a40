package cluster

import (
	"fmt"
	"reflect"
	"testing"
)

func TestRingDeterministicAcrossProcessesAndOrderings(t *testing.T) {
	nodes := []string{"http://n1:8081", "http://n2:8082", "http://n3:8083"}
	a := NewRing(nodes)
	b := NewRing(nodes) // a second "process" with the same config
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("fingerprint-%d", i)
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("key %q: owners disagree between identically configured rings", key)
		}
		if !reflect.DeepEqual(a.Preference(key), b.Preference(key)) {
			t.Fatalf("key %q: preference lists disagree", key)
		}
	}
}

func TestRingPreferenceCoversAllNodesOnceOwnerFirst(t *testing.T) {
	nodes := []string{"http://n1:8081", "http://n2:8082", "http://n3:8083"}
	r := NewRing(nodes)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%d", i)
		pref := r.Preference(key)
		if len(pref) != len(nodes) {
			t.Fatalf("key %q: preference has %d entries, want %d", key, len(pref), len(nodes))
		}
		if pref[0] != r.Owner(key) {
			t.Fatalf("key %q: preference[0] = %s, owner = %s", key, pref[0], r.Owner(key))
		}
		seen := map[string]bool{}
		for _, n := range pref {
			if seen[n] {
				t.Fatalf("key %q: node %s appears twice in preference", key, n)
			}
			seen[n] = true
		}
	}
}

// Removing one node must move only the keys it owned: every other
// key's owner is unchanged. This is the property that keeps a node
// death from invalidating the surviving nodes' caches.
func TestRingNodeRemovalMovesOnlyItsKeys(t *testing.T) {
	full := NewRing([]string{"http://n1", "http://n2", "http://n3"})
	minusN3 := NewRing([]string{"http://n1", "http://n2"})
	moved, kept := 0, 0
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("spec-%d", i)
		before := full.Owner(key)
		after := minusN3.Owner(key)
		if before == "http://n3" {
			moved++
			// Its new owner must be the next node in the full ring's
			// preference order — the deterministic successor.
			want := full.Preference(key)[1]
			if after != want {
				t.Fatalf("key %q: moved to %s, want deterministic successor %s", key, after, want)
			}
			continue
		}
		kept++
		if after != before {
			t.Fatalf("key %q: owner changed %s -> %s though its owner survived", key, before, after)
		}
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate distribution: moved=%d kept=%d", moved, kept)
	}
}

func TestRingBalance(t *testing.T) {
	nodes := []string{"http://n1", "http://n2", "http://n3"}
	r := NewRing(nodes)
	counts := map[string]int{}
	const total = 3000
	for i := 0; i < total; i++ {
		counts[r.Owner(fmt.Sprintf("fp-%d", i))]++
	}
	for _, n := range nodes {
		frac := float64(counts[n]) / total
		if frac < 0.15 || frac > 0.55 {
			t.Fatalf("node %s owns %.0f%% of keys — ring badly unbalanced: %v", n, frac*100, counts)
		}
	}
}

func TestRingDegenerateInputs(t *testing.T) {
	if o := NewRing(nil).Owner("k"); o != "" {
		t.Fatalf("empty ring owner = %q, want \"\"", o)
	}
	r := NewRing([]string{"http://a", "", "http://a"})
	if len(r.Nodes()) != 1 {
		t.Fatalf("dedup failed: %v", r.Nodes())
	}
	if o := r.Owner("k"); o != "http://a" {
		t.Fatalf("single-node ring owner = %q", o)
	}
}
