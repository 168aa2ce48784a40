// Package mem implements the simulated memory hierarchy: set-
// associative write-back caches with LRU replacement, miss status
// holding registers (MSHRs) that coalesce outstanding misses by line,
// instruction/data TLBs (caches whose lines are pages) with hardware
// page walks, a pipelined front-side bus, and a constant-latency
// memory (the paper uses 300 cycles, i.e. 75ns at 4GHz).
//
// Timing model: an access computes its completion cycle immediately
// ("functional-first" timing). The hierarchy tracks bus occupancy and
// outstanding line fills so that overlapping misses to the same line
// coalesce (the prefetching effect the paper's footnote 5 preserves)
// and distinct misses serialize on the bus.
package mem

import "soemt/internal/arena"

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name     string
	SizeKB   int // total capacity in KiB
	LineSize int // bytes per line (power of two)
	Ways     int // associativity
	Latency  int // access (hit) latency in cycles
}

// Lines returns the total number of lines in the configuration.
func (c CacheConfig) Lines() int { return c.SizeKB * 1024 / c.LineSize }

// Sets returns the number of sets.
func (c CacheConfig) Sets() int { return c.Lines() / c.Ways }

// CacheStats counts cache events.
type CacheStats struct {
	Accesses     uint64
	Misses       uint64
	Evictions    uint64
	Writebacks   uint64
	PrefetchHits uint64 // first demand hit on a prefetched line
}

// MissRate returns Misses/Accesses.
func (s CacheStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

type cacheLine struct {
	tag        uint64
	valid      bool
	dirty      bool
	prefetched bool   // installed by the prefetcher, not yet demand-hit
	lastUsed   uint64 // LRU timestamp
}

// Cache is a set-associative write-back, write-allocate cache with LRU
// replacement. It models tags and replacement only; no data is stored.
// A TLB is a Cache whose lines are pages (see NewTLBIn).
type Cache struct {
	sets     [][]cacheLine
	setMask  uint64
	lineBits uint
	latency  uint64 // hit latency in cycles
	clock    uint64 // monotonic use counter for LRU
	Stats    CacheStats
	lines    []cacheLine // the backing array sets are carved from
}

// NewCacheIn builds a cache whose tag arrays are carved from a (nil =
// plain heap allocation; see internal/arena). Invalid geometry (see
// CacheConfig.Validate) is a configuration error and is returned, not
// panicked, so bad CLI flags and sweep values surface cleanly.
func NewCacheIn(a *arena.Arena, cfg CacheConfig) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newCache(a, cfg.Sets(), cfg.Ways, cfg.LineSize, cfg.Latency), nil
}

// newCache carves a cache of nSets sets of ways lineSize-byte lines
// from a. The geometry must be valid.
func newCache(a *arena.Arena, nSets, ways, lineSize, latency int) *Cache {
	sets := arena.Slice[[]cacheLine](a, nSets)
	lines := arena.Slice[cacheLine](a, nSets*ways)
	for i, rest := 0, lines; i < nSets; i++ {
		sets[i], rest = rest[:ways:ways], rest[ways:]
	}
	lineBits := uint(0)
	for 1<<lineBits < lineSize {
		lineBits++
	}
	return &Cache{
		sets:     sets,
		lines:    lines,
		setMask:  uint64(nSets - 1),
		lineBits: lineBits,
		latency:  uint64(latency),
	}
}

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.lineBits << c.lineBits }

func (c *Cache) setIndex(addr uint64) uint64 { return (addr >> c.lineBits) & c.setMask }

// tag returns addr's line number (a TLB's virtual page number).
func (c *Cache) tag(addr uint64) uint64 { return addr >> c.lineBits }

// Lookup probes the cache for addr, updating LRU state and statistics.
// If write is true and the line is present it is marked dirty.
func (c *Cache) Lookup(addr uint64, write bool) bool {
	c.Stats.Accesses++
	c.clock++
	set := c.sets[c.setIndex(addr)]
	tag := c.tag(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lastUsed = c.clock
			if write {
				set[i].dirty = true
			}
			if set[i].prefetched {
				set[i].prefetched = false
				c.Stats.PrefetchHits++
			}
			return true
		}
	}
	c.Stats.Misses++
	return false
}

// Probe reports whether addr is present without touching LRU state or
// statistics (used by tests and by store-buffer dispatch peeking).
func (c *Cache) Probe(addr uint64) bool {
	set := c.sets[c.setIndex(addr)]
	tag := c.tag(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// Fill installs the line containing addr, evicting the LRU way if the
// set is full. It returns whether a dirty line was evicted and the
// evicted line's address (valid only when a line was evicted).
func (c *Cache) Fill(addr uint64, dirty bool) (evicted, evictedDirty bool, evictedAddr uint64) {
	return c.FillTagged(addr, dirty, false)
}

// FillTagged is Fill with control over the prefetched marker.
func (c *Cache) FillTagged(addr uint64, dirty, prefetched bool) (evicted, evictedDirty bool, evictedAddr uint64) {
	c.clock++
	si := c.setIndex(addr)
	set := c.sets[si]
	tag := c.tag(addr)
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			// Already present (e.g. racing fills after coalescing).
			set[i].lastUsed = c.clock
			set[i].dirty = set[i].dirty || dirty
			return false, false, 0
		}
		if !set[i].valid {
			victim = i
		} else if set[victim].valid && set[i].lastUsed < set[victim].lastUsed {
			victim = i
		}
	}
	v := &set[victim]
	if v.valid {
		evicted = true
		evictedDirty = v.dirty
		evictedAddr = v.tag << c.lineBits
		c.Stats.Evictions++
		if v.dirty {
			c.Stats.Writebacks++
		}
	}
	*v = cacheLine{tag: tag, valid: true, dirty: dirty, prefetched: prefetched, lastUsed: c.clock}
	return evicted, evictedDirty, evictedAddr
}

// Invalidate drops the line containing addr if present, returning
// whether it was present and dirty.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	set := c.sets[c.setIndex(addr)]
	tag := c.tag(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			present, dirty = true, set[i].dirty
			set[i] = cacheLine{}
			return present, dirty
		}
	}
	return false, false
}

// ResetStats clears statistics without touching cache contents (used
// at the end of warmup).
func (c *Cache) ResetStats() { c.Stats = CacheStats{} }

// CopyFrom overwrites c's contents, replacement state and statistics
// with src's. Both caches must share a geometry.
func (c *Cache) CopyFrom(src *Cache) {
	copy(c.lines, src.lines)
	c.clock = src.clock
	c.Stats = src.Stats
}
