package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"github.com/soteria-analysis/soteria/internal/ir"
)

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
//   - an analysis cache: AnalysisKey → completed *Analysis.
//
// Both levels are unbounded and live as long as the Cache: it is for
// finite workloads (the CLI tables, the market audits, the
// experiments), not for a long-running server, whose only result cache
// is its persistent store.
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
	mu sync.Mutex
	ir map[string]irEntry
	an map[string]*Analysis
}

type irEntry struct {
	app *ir.App
	err error
}

// NewCache creates an empty batch cache.
func NewCache() *Cache {
	return &Cache{ir: map[string]irEntry{}, an: map[string]*Analysis{}}
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

// LookupAnalysis returns the memoized analysis for key.
func (c *Cache) LookupAnalysis(key string) (*Analysis, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	an, ok := c.an[key]
	return an, ok
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
	c.an[key] = an
}
