package core

import (
	"fmt"
	"sync"
	"testing"
)

func TestSourceHashBoundaries(t *testing.T) {
	// Length prefixing: moving a byte across the name/source boundary
	// must change the hash.
	a := SourceHash(NamedSource{Name: "ab", Source: "c"})
	b := SourceHash(NamedSource{Name: "a", Source: "bc"})
	if a == b {
		t.Fatal("name/source boundary does not affect SourceHash")
	}
	if a != SourceHash(NamedSource{Name: "ab", Source: "c"}) {
		t.Fatal("SourceHash is not deterministic")
	}
}

func TestAnalysisKeyOptionSensitivity(t *testing.T) {
	srcs := []NamedSource{{Name: "x", Source: "y"}}
	base := DefaultOptions()
	key := AnalysisKey(srcs, base)

	general := base
	general.AppSpecific = false
	if AnalysisKey(srcs, general) == key {
		t.Fatal("property-family selection does not affect AnalysisKey")
	}
	noTaint := base
	noTaint.Taint = false
	if AnalysisKey(srcs, noTaint) == key {
		t.Fatal("taint selection does not affect AnalysisKey")
	}
	filtered := base
	filtered.PropertyIDs = []string{"P.1"}
	if AnalysisKey(srcs, filtered) == key {
		t.Fatal("property filter does not affect AnalysisKey")
	}
	limited := base
	limited.Limits.MaxStates = 7
	if AnalysisKey(srcs, limited) == key {
		t.Fatal("resource limits do not affect AnalysisKey")
	}
}

func TestCacheStatsCounters(t *testing.T) {
	c := NewCache()
	if _, ok := c.LookupAnalysis("k"); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.StoreAnalysis("k", &Analysis{Checked: []string{"S.1"}})
	if _, ok := c.LookupAnalysis("k"); !ok {
		t.Fatal("stored analysis not found")
	}
	// Incomplete and nil analyses are never cached.
	c.StoreAnalysis("partial", &Analysis{Incomplete: true})
	c.StoreAnalysis("nil", nil)
	if _, ok := c.LookupAnalysis("partial"); ok {
		t.Fatal("incomplete analysis was cached")
	}

	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want 1 hit, 2 misses, 0 evictions", st)
	}
	if st.Analyses != 1 {
		t.Fatalf("stats.Analyses = %d, want 1", st.Analyses)
	}
}

func TestCacheBoundedEviction(t *testing.T) {
	c := NewCacheBounded(2)
	for i := 0; i < 4; i++ {
		c.StoreAnalysis(fmt.Sprintf("k%d", i), &Analysis{})
	}
	st := c.Stats()
	if st.Analyses != 2 || st.Evictions != 2 {
		t.Fatalf("stats = %+v, want 2 analyses, 2 evictions", st)
	}
	// Oldest entries evicted, newest retained.
	if _, ok := c.LookupAnalysis("k0"); ok {
		t.Fatal("k0 survived eviction")
	}
	if _, ok := c.LookupAnalysis("k3"); !ok {
		t.Fatal("k3 was evicted")
	}
	// A lookup refreshes recency: after touching k2, storing k4 evicts
	// k3 (now least recent), and storing k5 evicts k2.
	c.LookupAnalysis("k2")
	c.StoreAnalysis("k4", &Analysis{})
	if _, ok := c.LookupAnalysis("k3"); ok {
		t.Fatal("k3 outlived the refreshed k2")
	}
	c.StoreAnalysis("k5", &Analysis{})
	if _, ok := c.LookupAnalysis("k2"); ok {
		t.Fatal("k2 survived past the bound")
	}
	if _, ok := c.LookupAnalysis("k5"); !ok {
		t.Fatal("most recent entry k5 was evicted")
	}
}

func TestCacheNilSafety(t *testing.T) {
	var c *Cache
	if _, ok := c.LookupAnalysis("k"); ok {
		t.Fatal("nil cache reported a hit")
	}
	c.StoreAnalysis("k", &Analysis{}) // must not panic
	if st := c.Stats(); st != (CacheStats{}) {
		t.Fatalf("nil cache stats = %+v, want zero", st)
	}
	if irs, ans := c.Len(); irs != 0 || ans != 0 {
		t.Fatal("nil cache reports entries")
	}
	if _, err := c.ParseSource(NamedSource{Name: "x", Source: "definition(name: \"x\")\n"}); err != nil {
		t.Fatalf("nil cache ParseSource: %v", err)
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := NewCacheBounded(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g+i)%16)
				if an, ok := c.LookupAnalysis(key); ok && an == nil {
					t.Error("hit returned nil analysis")
					return
				}
				c.StoreAnalysis(key, &Analysis{Checked: []string{key}})
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Analyses > 8 {
		t.Fatalf("bound violated: %d analyses cached (max 8)", st.Analyses)
	}
	if st.Hits+st.Misses == 0 {
		t.Fatal("no lookups recorded")
	}
}

// TestResultCacheCompliance pins the interface: both the in-process
// cache and a nil cache must satisfy ResultCache semantics through the
// interface (including the typed-nil case BatchOptions can produce).
func TestResultCacheCompliance(t *testing.T) {
	var rc ResultCache = (*Cache)(nil)
	if _, ok := rc.LookupAnalysis("k"); ok {
		t.Fatal("typed-nil cache reported a hit")
	}
	rc.StoreAnalysis("k", &Analysis{})
	_ = rc.Stats()

	rc = NewCache()
	rc.StoreAnalysis("k", &Analysis{})
	if _, ok := rc.LookupAnalysis("k"); !ok {
		t.Fatal("interface-wrapped cache lost its entry")
	}
}
