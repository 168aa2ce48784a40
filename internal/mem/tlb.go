package mem

import "soemt/internal/arena"

// TLBConfig describes a translation lookaside buffer.
type TLBConfig struct {
	Name     string
	Entries  int // total entries
	Ways     int // associativity
	PageSize int // bytes per page (power of two)
}

// NewTLBIn builds a TLB: a Cache whose lines are pages, so it indexes
// and tags by virtual page number and replaces LRU like any cache. It
// models presence only; translation is identity (the simulator has no
// physical address space). Its arrays are carved from a (nil = plain
// heap allocation), and invalid geometry (see TLBConfig.Validate) is a
// configuration error and is returned, not panicked.
func NewTLBIn(a *arena.Arena, cfg TLBConfig) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newCache(a, cfg.Entries/cfg.Ways, cfg.Ways, cfg.PageSize, 0), nil
}
