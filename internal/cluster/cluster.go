package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"soemt/internal/obs"
)

// Health is a node's probe-driven state.
type Health int

const (
	// Healthy nodes answered their latest /healthz probe (or have not
	// been probed yet — a fresh cluster assumes the best and lets the
	// data path correct it).
	Healthy Health = iota
	// Suspect nodes failed at least one recent probe; they are still
	// routed to (after healthy candidates) because a single dropped
	// probe must not amputate a live node.
	Suspect
	// Dead nodes failed DeadAfter consecutive probes and are excluded
	// from routing until a probe succeeds again.
	Dead
)

func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	default:
		return "dead"
	}
}

// Config parameterizes a Cluster. Nodes is required; everything else
// has defaults.
type Config struct {
	// Self is this process's own URL in the ring ("" for a pure client
	// such as soeproxy). Self is never probed or dialed.
	Self string
	// Nodes lists every member's base URL (including Self, when set).
	// All processes must agree on this list for routing to agree.
	Nodes []string
	// VNodes is the virtual points per node on the ring. Default 64.
	VNodes int
	// TripAfter is the consecutive-failure count that opens a node's
	// breaker. Default 3.
	TripAfter int
	// DeadAfter is the consecutive failed /healthz probes that mark a
	// node Dead (the first failure marks it Suspect). Default 3.
	DeadAfter int
	// BaseBackoff/MaxBackoff bound the breaker's jittered exponential
	// backoff. Defaults 250ms / 30s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// ProbeInterval spaces the /healthz probe rounds started by
	// StartProbes. Default 2s.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe request. Default 1s.
	ProbeTimeout time.Duration
	// RequestTimeout bounds one data-path request when the caller's ctx
	// carries no earlier deadline. Default 15s.
	RequestTimeout time.Duration
	// Seed makes breaker jitter deterministic. Default 1.
	Seed uint64
	// Transport is the HTTP transport for all cluster traffic; chaos
	// tests wrap it with faultinject.RoundTripper. Defaults to
	// http.DefaultTransport.
	Transport http.RoundTripper
	// Registry receives cluster.* metrics (nil disables them).
	Registry *obs.Registry
	// Logf, if non-nil, receives state-transition log lines.
	Logf func(format string, args ...interface{})

	now func() time.Time // test hook
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.TripAfter <= 0 {
		c.TripAfter = 3
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 3
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 250 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 30 * time.Second
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 15 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Transport == nil {
		c.Transport = http.DefaultTransport
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// node is one tracked member.
type node struct {
	url     string
	breaker *Breaker

	mu        sync.Mutex
	health    Health
	probeFail int // consecutive failed probes
	lastErr   string
	lastProbe time.Time
}

// ErrBreakerOpen is returned by RoundTrip when the target node's
// breaker refuses the request; RetryAfter is how long until the
// breaker admits its next half-open probe.
type ErrBreakerOpen struct {
	Node       string
	RetryAfter time.Duration
}

func (e *ErrBreakerOpen) Error() string {
	return fmt.Sprintf("cluster: breaker open for %s (retry in %s)", e.Node, e.RetryAfter.Round(time.Millisecond))
}

// ErrNoCandidates is returned by routing when every node in a key's
// preference list is dead or breaker-refused.
var ErrNoCandidates = errors.New("cluster: no routable node")

// Cluster tracks a fixed set of nodes: ring placement, health, and
// per-node breakers. Construct with New; all methods are safe for
// concurrent use.
type Cluster struct {
	cfg    Config
	ring   *Ring
	client *http.Client

	mu    sync.Mutex
	nodes map[string]*node

	probeWG   sync.WaitGroup
	probeStop chan struct{}
	probeOnce sync.Once

	tripsC      *obs.Counter
	probeFailsC *obs.Counter
	openG       *obs.Gauge
	healthyG    *obs.Gauge
	suspectG    *obs.Gauge
	deadG       *obs.Gauge
}

// New builds a Cluster over cfg.Nodes. At least one node other than
// Self is not required — a single-node "cluster" routes everything to
// itself — but an empty node list is an error.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	ring := NewRing(cfg.Nodes, cfg.VNodes)
	if len(ring.Nodes()) == 0 {
		return nil, errors.New("cluster: no nodes configured")
	}
	if cfg.Self != "" {
		found := false
		for _, n := range ring.Nodes() {
			if n == cfg.Self {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("cluster: self %q is not in the node list", cfg.Self)
		}
	}
	c := &Cluster{
		cfg:       cfg,
		ring:      ring,
		client:    &http.Client{Transport: cfg.Transport},
		nodes:     make(map[string]*node, len(ring.Nodes())),
		probeStop: make(chan struct{}),

		tripsC:      cfg.Registry.Counter("cluster.breaker_trips"),
		probeFailsC: cfg.Registry.Counter("cluster.probe_failures"),
		openG:       cfg.Registry.Gauge("cluster.breaker_open"),
		healthyG:    cfg.Registry.Gauge("cluster.nodes_healthy"),
		suspectG:    cfg.Registry.Gauge("cluster.nodes_suspect"),
		deadG:       cfg.Registry.Gauge("cluster.nodes_dead"),
	}
	for i, u := range ring.Nodes() {
		c.nodes[u] = &node{
			url:     u,
			breaker: newBreaker(cfg.TripAfter, cfg.BaseBackoff, cfg.MaxBackoff, cfg.Seed+uint64(i), cfg.now),
		}
	}
	c.publishHealthGauges()
	return c, nil
}

func (c *Cluster) logf(format string, args ...interface{}) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Self returns this process's own URL ("" for pure clients).
func (c *Cluster) Self() string { return c.cfg.Self }

// Owner returns the node owning key on the ring.
func (c *Cluster) Owner(key string) string { return c.ring.Owner(key) }

// Candidates returns key's preference list filtered for routing: dead
// nodes are dropped, and healthy nodes are tried before suspect ones
// (stable within each class, so the failover target for a given key
// and health configuration is deterministic). Breakers are NOT
// consulted here — admission to a specific node happens in RoundTrip,
// where the half-open single-probe semantics need the request to be
// imminent.
func (c *Cluster) Candidates(key string) []string {
	pref := c.ring.Preference(key)
	healthy := make([]string, 0, len(pref))
	var suspect []string
	for _, u := range pref {
		switch c.healthOf(u) {
		case Healthy:
			healthy = append(healthy, u)
		case Suspect:
			suspect = append(suspect, u)
		}
	}
	return append(healthy, suspect...)
}

func (c *Cluster) node(url string) *node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[url]
}

func (c *Cluster) healthOf(url string) Health {
	n := c.node(url)
	if n == nil {
		return Dead
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.health
}

// retryAfterFrom parses a Retry-After header carrying delay seconds
// (the only form this fleet emits).
func retryAfterFrom(resp *http.Response) time.Duration {
	if resp == nil {
		return 0
	}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return 0
}

// RoundTrip sends one request to a specific node, with breaker
// admission and outcome bookkeeping:
//
//   - a refusing breaker returns *ErrBreakerOpen without dialing;
//   - transport errors and 5xx responses count as failures (trips
//     after TripAfter in a row) — the 5xx response is still returned
//     to the caller alongside a nil error so it can relay or retry;
//   - 429/503 count as failures too, seeding the breaker's open
//     duration with the node's own Retry-After: an overloaded node
//     asked the fleet to back off, and the breaker is how the gateway
//     keeps that promise (Malthusian shedding — culling traffic to a
//     saturated node preserves aggregate throughput);
//   - everything else (2xx, 404, 410, other 4xx) counts as a success:
//     the node is alive and serving.
//
// body may be nil; a non-nil body is re-readable by construction
// (bytes, not a stream) so callers can resend it to another node.
func (c *Cluster) RoundTrip(ctx context.Context, nodeURL, method, path string, body []byte, hdr http.Header) (*http.Response, error) {
	n := c.node(nodeURL)
	if n == nil {
		return nil, fmt.Errorf("cluster: unknown node %q", nodeURL)
	}
	if !n.breaker.Allow() {
		_, rem := n.breaker.State()
		return nil, &ErrBreakerOpen{Node: nodeURL, RetryAfter: rem}
	}
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cfg.RequestTimeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, nodeURL+path, rd)
	if err != nil {
		return nil, err
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	resp, err := c.client.Do(req)
	switch {
	case err != nil:
		c.noteFailure(n, 0, err.Error())
		return nil, err
	case resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests:
		c.noteFailure(n, retryAfterFrom(resp), resp.Status)
		return resp, nil
	default:
		n.breaker.Success()
		return resp, nil
	}
}

func (c *Cluster) noteFailure(n *node, retryAfter time.Duration, cause string) {
	if n.breaker.Failure(retryAfter) {
		c.tripsC.Inc()
		_, rem := n.breaker.State()
		c.logf("cluster: breaker for %s tripped open (%s): %s", n.url, rem.Round(time.Millisecond), cause)
	}
}

// ---- health probing ----

// ProbeAll runs one /healthz round over every node except Self,
// sequentially, and updates health states: success → Healthy, failure
// → Suspect, DeadAfter consecutive failures → Dead. A node's /healthz
// answers 503 while draining, so a draining peer organically leaves
// the routable set before it stops accepting work.
func (c *Cluster) ProbeAll(ctx context.Context) {
	for _, u := range c.ring.Nodes() {
		if u == c.cfg.Self {
			continue
		}
		c.probeOne(ctx, u)
	}
	c.publishHealthGauges()
}

func (c *Cluster) probeOne(ctx context.Context, url string) {
	n := c.node(url)
	if n == nil {
		return
	}
	pctx, cancel := context.WithTimeout(ctx, c.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		c.noteProbe(n, err)
		return
	}
	resp, err := c.client.Do(req)
	if err == nil {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	c.noteProbe(n, err)
}

func (c *Cluster) noteProbe(n *node, err error) {
	n.mu.Lock()
	prev := n.health
	n.lastProbe = c.cfg.now()
	if err == nil {
		n.health = Healthy
		n.probeFail = 0
		n.lastErr = ""
	} else {
		n.probeFail++
		n.lastErr = err.Error()
		if n.probeFail >= c.cfg.DeadAfter {
			n.health = Dead
		} else {
			n.health = Suspect
		}
	}
	now := n.health
	n.mu.Unlock()
	if err != nil {
		c.probeFailsC.Inc()
	}
	if prev != now {
		c.logf("cluster: node %s %s -> %s%s", n.url, prev, now, causeSuffix(err))
	}
}

func causeSuffix(err error) string {
	if err == nil {
		return ""
	}
	return " (" + err.Error() + ")"
}

// StartProbes begins the background probe loop (one round immediately,
// then every ProbeInterval). Stop it with StopProbes; starting twice
// is a no-op.
func (c *Cluster) StartProbes(ctx context.Context) {
	c.probeOnce.Do(func() {
		c.probeWG.Add(1)
		go func() {
			defer c.probeWG.Done()
			c.ProbeAll(ctx)
			t := time.NewTicker(c.cfg.ProbeInterval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					c.ProbeAll(ctx)
				case <-c.probeStop:
					return
				case <-ctx.Done():
					return
				}
			}
		}()
	})
}

// StopProbes stops the background probe loop and waits for it to exit.
// Safe to call without StartProbes and safe to call twice.
func (c *Cluster) StopProbes() {
	select {
	case <-c.probeStop:
	default:
		close(c.probeStop)
	}
	c.probeWG.Wait()
}

// ---- status export ----

// NodeStatus is one node's row in Snapshot, shaped for /status JSON
// and `soeproxy -status`.
type NodeStatus struct {
	URL               string `json:"url"`
	Self              bool   `json:"self,omitempty"`
	Health            string `json:"health"`
	Breaker           string `json:"breaker"`
	BreakerRetryMilli int64  `json:"breaker_retry_ms,omitempty"`
	ConsecProbeFails  int    `json:"consecutive_probe_failures,omitempty"`
	LastError         string `json:"last_error,omitempty"`
	LastProbe         string `json:"last_probe,omitempty"`
}

// Snapshot returns every node's health and breaker state (sorted by
// URL) and refreshes the cluster.* gauges as a side effect, so a
// /metrics scrape that follows a Snapshot sees current values.
func (c *Cluster) Snapshot() []NodeStatus {
	c.mu.Lock()
	nodes := make([]*node, 0, len(c.nodes))
	for _, n := range c.nodes {
		nodes = append(nodes, n)
	}
	c.mu.Unlock()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].url < nodes[j].url })

	out := make([]NodeStatus, 0, len(nodes))
	var open int64
	for _, n := range nodes {
		st, rem := n.breaker.State()
		if st == BreakerOpen {
			open++
		}
		n.mu.Lock()
		row := NodeStatus{
			URL:               n.url,
			Self:              n.url == c.cfg.Self,
			Health:            n.health.String(),
			Breaker:           st,
			BreakerRetryMilli: rem.Milliseconds(),
			ConsecProbeFails:  n.probeFail,
			LastError:         n.lastErr,
		}
		if !n.lastProbe.IsZero() {
			row.LastProbe = n.lastProbe.Format(time.RFC3339)
		}
		n.mu.Unlock()
		out = append(out, row)
	}
	c.openG.Set(open)
	c.publishHealthGauges()
	return out
}

func (c *Cluster) publishHealthGauges() {
	var h, s, d int64
	c.mu.Lock()
	for _, n := range c.nodes {
		n.mu.Lock()
		switch n.health {
		case Healthy:
			h++
		case Suspect:
			s++
		default:
			d++
		}
		n.mu.Unlock()
	}
	c.mu.Unlock()
	c.healthyG.Set(h)
	c.suspectG.Set(s)
	c.deadG.Set(d)
}
