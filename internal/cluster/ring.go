// Package cluster is the distributed tier's robustness substrate: a
// consistent-hash ring over content-addressed spec fingerprints, node
// health states driven by /healthz probes, and per-node circuit
// breakers with jittered exponential backoff that honors Retry-After.
//
// The design target is *surviving partial failure*, not routing —
// routing is free because the fingerprint is already content-addressed
// (DESIGN.md §7). The paper's lesson (and Malthusian Locks', see
// PAPERS.md) shapes the policies: a greedy retry loop against a sick
// node starves everyone the way an unquota'd event-driven thread
// starves its neighbor, so breakers deliberately cull traffic to
// failing nodes and the backoff honors the node's own Retry-After the
// way Eq. 9 quotas honor the fairness target.
//
// The package deliberately knows nothing about soeserve or the
// experiment engine: it moves bytes to named nodes and reports
// outcomes. soeserve wires it to the peer cache tier
// (serve.Server.SetPeers) and soeproxy wires it to request routing
// (internal/proxy).
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"

	"soemt/internal/rng"
)

// Ring is an immutable consistent-hash ring: every node contributes
// vnodes points on a 64-bit circle, and a key is owned by the first
// point at or after its hash. Adding or removing one node moves only
// the keys that node owned — the property that keeps a node death from
// reshuffling the whole fleet's caches.
type Ring struct {
	nodes  []string // configured order, deduplicated
	points []ringPoint
}

type ringPoint struct {
	hash uint64
	node int // index into nodes
}

// hash64 hashes a string to a ring position: FNV-1a finalized through
// the SplitMix64 mixer. FNV alone clusters similar short strings
// ("http://n1#0", "http://n1#1", …) into one arc of the circle; the
// mixer restores avalanche. Both halves are stable across processes
// and Go releases, which the cross-node routing agreement depends on.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return rng.Mix64(h.Sum64())
}

// vnodes is the number of virtual points each node contributes to the
// ring.
const vnodes = 64

// NewRing builds a ring over the given node names (base URLs, by
// convention). Duplicate names are collapsed; order of first
// appearance is preserved and is the tie-break order, so every process
// configured with the same node list derives the same ring.
func NewRing(nodes []string) *Ring {
	r := &Ring{}
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		r.nodes = append(r.nodes, n)
	}
	for i, n := range r.nodes {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash: hash64(fmt.Sprintf("%s#%d", n, v)),
				node: i,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Nodes returns the ring's members in configured order. The slice is
// shared; callers must not mutate it.
func (r *Ring) Nodes() []string { return r.nodes }

// Owner returns the node owning key, or "" for an empty ring.
func (r *Ring) Owner(key string) string {
	p := r.Preference(key)
	if len(p) == 0 {
		return ""
	}
	return p[0]
}

// Preference returns every node in ring order starting from key's
// owner: the deterministic failover sequence. Element 0 is the owner;
// when it is unavailable the caller walks down the list, and every
// process with the same node list walks the same way — which is what
// keeps a re-routed spec landing on ONE successor instead of
// scattering (and re-simulating) across the fleet.
func (r *Ring) Preference(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, len(r.nodes))
	seen := make(map[int]bool, len(r.nodes))
	for i := 0; i < len(r.points) && len(out) < len(r.nodes); i++ {
		pt := r.points[(start+i)%len(r.points)]
		if !seen[pt.node] {
			seen[pt.node] = true
			out = append(out, r.nodes[pt.node])
		}
	}
	return out
}
