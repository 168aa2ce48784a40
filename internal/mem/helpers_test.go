package mem

// Test constructors for configurations the tests know to be valid.

func mustCache(cfg CacheConfig) *Cache {
	c, err := NewCacheIn(nil, cfg)
	if err != nil {
		panic(err)
	}
	return c
}

func mustTLB(cfg TLBConfig) *Cache {
	t, err := NewTLBIn(nil, cfg)
	if err != nil {
		panic(err)
	}
	return t
}

func mustHierarchy(cfg HierarchyConfig) *Hierarchy {
	h, err := NewHierarchyIn(nil, cfg)
	if err != nil {
		panic(err)
	}
	return h
}
