package core

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/soteria-analysis/soteria/internal/ir"
)

// ResultCache is the memoization contract of AnalyzeBatch: completed
// analyses keyed by a content hash of their inputs (see AnalysisKey).
// The in-process Cache below and the persistent disk store
// (internal/store.AnalysisCache) both satisfy it, so batch callers can
// swap process-lifetime memoization for cross-restart memoization
// without touching the pipeline.
//
// Implementations must be safe for concurrent use and must treat
// stored analyses as immutable. LookupAnalysis reports a miss for keys
// never stored; StoreAnalysis may decline to store (e.g. partial
// results). Stats exposes hit/miss/eviction counters for /metrics.
type ResultCache interface {
	LookupAnalysis(key string) (*Analysis, bool)
	StoreAnalysis(key string, an *Analysis)
	Stats() CacheStats
}

// CacheStats are a cache's monotonic counters and current sizes, for
// instrumentation (the soteriad /metrics endpoint) and tests.
type CacheStats struct {
	// Hits and Misses count LookupAnalysis outcomes.
	Hits, Misses int64
	// Evictions counts analyses dropped to honor a capacity bound.
	Evictions int64
	// IREntries and Analyses are the current entry counts.
	IREntries, Analyses int
}

// SourceHash fingerprints one named source (length-prefixed, so
// name/source boundaries cannot collide).
func SourceHash(s NamedSource) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d:%s\x00%d:%s\x00", len(s.Name), s.Name, len(s.Source), s.Source)
	return hex.EncodeToString(h.Sum(nil))
}

// AnalysisKey fingerprints an item's sources plus every option that
// affects verdicts — the content address of an analysis result.
func AnalysisKey(sources []NamedSource, o Options) string {
	h := sha256.New()
	for _, s := range sources {
		fmt.Fprintf(h, "%s\x00", SourceHash(s))
	}
	fmt.Fprintf(h, "g=%t|a=%t|t=%t|ids=%q|lim=%+v", o.General, o.AppSpecific, o.Taint, o.PropertyIDs, o.Limits)
	return hex.EncodeToString(h.Sum(nil))
}

// Cache memoizes batch work across items and across calls. It has two
// levels, both keyed by content hashes so identical sources shared
// between items (an app that is a member of several groups) or
// repeated audits hit without coordination:
//
//   - an IR cache: source hash → parsed *ir.App,
//   - an analysis cache: AnalysisKey → completed *Analysis, optionally
//     bounded with least-recently-used eviction (see NewCacheBounded).
//
// Cached values are shared, not copied: the IR and the Analysis (its
// model, Kripke structure, and violations) are treated as immutable
// after construction — which they are for every reader in this
// repository (post-hoc checks build fresh budgets and engine state).
// Callers that mutate results must not use a cache.
//
// All methods are safe for concurrent use and safe on a nil *Cache
// (lookups miss, stores are dropped), so a nil cache threaded through
// BatchOptions simply disables memoization.
type Cache struct {
	mu  sync.Mutex
	ir  map[string]irEntry
	an  map[string]*list.Element
	lru *list.List // of *anEntry, front = most recently used
	max int        // max analysis entries; 0 = unbounded

	hits, misses, evictions atomic.Int64
}

type irEntry struct {
	app *ir.App
	err error
}

type anEntry struct {
	key string
	an  *Analysis
}

// NewCache creates an empty, unbounded batch cache.
func NewCache() *Cache { return NewCacheBounded(0) }

// NewCacheBounded creates a batch cache holding at most maxAnalyses
// completed analyses (0 = unbounded), evicting the least recently used
// entry past the bound. The IR level stays unbounded: parsed IR is
// small and shared by many analyses.
func NewCacheBounded(maxAnalyses int) *Cache {
	return &Cache{
		ir:  map[string]irEntry{},
		an:  map[string]*list.Element{},
		lru: list.New(),
		max: maxAnalyses,
	}
}

// ParseSource parses through the IR cache. Errors are cached too:
// re-auditing a corpus with one broken app does not re-parse it per
// table. Parsing runs outside the lock; concurrent first parses of
// the same source may race benignly (last write wins, same value).
func (c *Cache) ParseSource(s NamedSource) (*ir.App, error) {
	if c == nil {
		return ir.BuildSource(s.Name, s.Source)
	}
	key := SourceHash(s)
	c.mu.Lock()
	e, ok := c.ir[key]
	c.mu.Unlock()
	if ok {
		return e.app, e.err
	}
	app, err := ir.BuildSource(s.Name, s.Source)
	c.mu.Lock()
	c.ir[key] = irEntry{app: app, err: err}
	c.mu.Unlock()
	return app, err
}

// LookupAnalysis returns the memoized analysis for key, marking it
// most recently used.
func (c *Cache) LookupAnalysis(key string) (*Analysis, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.an[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*anEntry).an, true
}

// StoreAnalysis memoizes a completed analysis. Partial results are
// not cached: an Incomplete verdict reflects the budget or fault of
// one run, not a property of the input.
func (c *Cache) StoreAnalysis(key string, an *Analysis) {
	if c == nil || an == nil || an.Incomplete {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.an[key]; ok {
		el.Value.(*anEntry).an = an
		c.lru.MoveToFront(el)
		return
	}
	c.an[key] = c.lru.PushFront(&anEntry{key: key, an: an})
	for c.max > 0 && c.lru.Len() > c.max {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.an, oldest.Value.(*anEntry).key)
		c.evictions.Add(1)
	}
}

// Stats reports the cache's counters and entry counts.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		IREntries: len(c.ir),
		Analyses:  len(c.an),
	}
}

// Len reports the number of cached IR and analysis entries, for tests
// and instrumentation.
func (c *Cache) Len() (irEntries, analyses int) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.ir), len(c.an)
}
