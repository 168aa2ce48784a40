package mem

import "soemt/internal/arena"

// TLBConfig describes a translation lookaside buffer.
type TLBConfig struct {
	Name     string
	Entries  int // total entries
	Ways     int // associativity
	PageSize int // bytes per page (power of two)
}

// TLBStats counts TLB events.
type TLBStats struct {
	Accesses uint64
	Misses   uint64
}

// MissRate returns Misses/Accesses.
func (s TLBStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

type tlbEntry struct {
	vpn      uint64
	valid    bool
	lastUsed uint64
}

// TLB is a set-associative translation buffer. Like Cache it models
// presence only; translation is identity (the simulator has no
// physical address space).
type TLB struct {
	cfg      TLBConfig
	sets     [][]tlbEntry
	setMask  uint64
	pageBits uint
	clock    uint64
	Stats    TLBStats
	entries  []tlbEntry // the backing array sets are carved from
}

// NewTLB builds a TLB. Invalid geometry (see TLBConfig.Validate) is a
// configuration error and is returned, not panicked.
func NewTLB(cfg TLBConfig) (*TLB, error) {
	return NewTLBIn(nil, cfg)
}

// NewTLBIn builds a TLB whose entry arrays are carved from a (nil =
// plain heap allocation; see internal/arena).
func NewTLBIn(a *arena.Arena, cfg TLBConfig) (*TLB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nSets := cfg.Entries / cfg.Ways
	sets := arena.Slice[[]tlbEntry](a, nSets)
	entries := arena.Slice[tlbEntry](a, nSets*cfg.Ways)
	for i, rest := 0, entries; i < nSets; i++ {
		sets[i], rest = rest[:cfg.Ways:cfg.Ways], rest[cfg.Ways:]
	}
	pageBits := uint(0)
	for 1<<pageBits < cfg.PageSize {
		pageBits++
	}
	return &TLB{cfg: cfg, sets: sets, entries: entries, setMask: uint64(nSets - 1), pageBits: pageBits}, nil
}

// Config returns the TLB geometry.
func (t *TLB) Config() TLBConfig { return t.cfg }

// VPN returns the virtual page number of addr.
func (t *TLB) VPN(addr uint64) uint64 { return addr >> t.pageBits }

// Lookup probes the TLB for the page containing addr, updating LRU and
// statistics.
func (t *TLB) Lookup(addr uint64) bool {
	t.Stats.Accesses++
	t.clock++
	vpn := t.VPN(addr)
	set := t.sets[vpn&t.setMask]
	for i := range set {
		if set[i].valid && set[i].vpn == vpn {
			set[i].lastUsed = t.clock
			return true
		}
	}
	t.Stats.Misses++
	return false
}

// Fill installs the translation for addr's page, evicting LRU.
func (t *TLB) Fill(addr uint64) {
	t.clock++
	vpn := t.VPN(addr)
	set := t.sets[vpn&t.setMask]
	victim := 0
	for i := range set {
		if set[i].valid && set[i].vpn == vpn {
			set[i].lastUsed = t.clock
			return
		}
		if !set[i].valid {
			victim = i
		} else if set[victim].valid && set[i].lastUsed < set[victim].lastUsed {
			victim = i
		}
	}
	set[victim] = tlbEntry{vpn: vpn, valid: true, lastUsed: t.clock}
}

// Reset invalidates all entries and clears statistics.
func (t *TLB) Reset() {
	for _, set := range t.sets {
		for i := range set {
			set[i] = tlbEntry{}
		}
	}
	t.Stats = TLBStats{}
	t.clock = 0
}

// ResetStats clears statistics without touching contents.
func (t *TLB) ResetStats() { t.Stats = TLBStats{} }

// CopyFrom overwrites t's entries, replacement state and statistics
// with src's. Both TLBs must share a geometry.
func (t *TLB) CopyFrom(src *TLB) {
	copy(t.entries, src.entries)
	t.clock = src.clock
	t.Stats = src.Stats
}
