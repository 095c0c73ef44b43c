package server

import (
	"sync"

	"repro/wsp"
)

// scratchCache shares warm solve scratches — compiled contract systems,
// solver arenas, packing buffers — across /v1/solve requests, keyed by
// traffic.StructureSignature. A wsp.Scratch is warm only for the topology
// it last solved, so the cache keeps a bounded free list per signature and
// hands a request one that already compiled ITS topology whenever one is
// idle; results are bit-identical either way (wsp.Scratch contract).
//
// Checkout never blocks: with no idle scratch for the signature the
// request compiles on a fresh one, which costs milliseconds, instead of
// waiting for another request's whole solve to hand one back. Signatures
// are evicted LRU beyond the configured bound.
type scratchCache struct {
	met *metrics

	mu      sync.Mutex
	cap     int // max distinct signatures
	perSig  int // max idle scratches kept per signature
	tick    int64
	entries map[string]*cacheEntry
}

type cacheEntry struct {
	free    []*wsp.Scratch
	lastUse int64
}

func newScratchCache(cfg Config, met *metrics) *scratchCache {
	return &scratchCache{
		met:     met,
		cap:     cfg.CacheSignatures,
		perSig:  cfg.CachePerSignature,
		entries: make(map[string]*cacheEntry),
	}
}

// checkout pops an idle warm scratch for the signature, or returns a cold
// one when none is idle.
func (c *scratchCache) checkout(sig string) *wsp.Scratch {
	c.mu.Lock()
	e := c.entries[sig]
	if e == nil {
		e = &cacheEntry{}
		c.entries[sig] = e
		c.evictOverCap(sig)
	}
	c.tick++
	e.lastUse = c.tick
	if n := len(e.free); n > 0 {
		sc := e.free[n-1]
		e.free = e.free[:n-1]
		c.mu.Unlock()
		c.met.cacheHits.Add(1)
		return sc
	}
	c.mu.Unlock()
	c.met.cacheMisses.Add(1)
	return wsp.NewScratch()
}

// release returns a scratch to its signature's free list. It is dropped
// when the signature was evicted meanwhile or the list is full.
func (c *scratchCache) release(sig string, sc *wsp.Scratch) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[sig]; e != nil && len(e.free) < c.perSig {
		e.free = append(e.free, sc)
	}
}

// evictOverCap drops the least-recently-used signature other than keep
// (the entry just inserted) once the cache holds more than cap. Entries
// are inserted one at a time, so one eviction restores the bound. Callers
// hold c.mu.
func (c *scratchCache) evictOverCap(keep string) {
	if len(c.entries) <= c.cap {
		return
	}
	victim := ""
	var oldest int64
	for sig, e := range c.entries {
		if sig != keep && (victim == "" || e.lastUse < oldest) {
			victim, oldest = sig, e.lastUse
		}
	}
	delete(c.entries, victim)
	c.met.cacheEvictions.Add(1)
}
