package core

import (
	"fmt"
	"sync"
	"sync/atomic"
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

// TestCacheStatsCounters pins the analysis level's lookup outcomes:
// a miss before any store, a hit (returning the stored value) after,
// and misses for Incomplete and nil analyses, which are never cached.
func TestCacheStatsCounters(t *testing.T) {
	c := NewCache()
	if _, ok := c.LookupAnalysis("k"); ok {
		t.Fatal("empty cache reported a hit")
	}
	want := &Analysis{Checked: []string{"S.1"}}
	c.StoreAnalysis("k", want)
	if got, ok := c.LookupAnalysis("k"); !ok || got != want {
		t.Fatalf("lookup after store = %p, %t; want %p, true", got, ok, want)
	}
	c.StoreAnalysis("partial", &Analysis{Incomplete: true})
	c.StoreAnalysis("nil", nil)
	for _, k := range []string{"partial", "nil"} {
		if _, ok := c.LookupAnalysis(k); ok {
			t.Fatalf("%s analysis was cached", k)
		}
	}
	// A second store under the same key replaces the first.
	again := &Analysis{Checked: []string{"S.2"}}
	c.StoreAnalysis("k", again)
	if got, _ := c.LookupAnalysis("k"); got != again {
		t.Fatal("re-store did not replace the cached analysis")
	}
}

func TestCacheNilSafety(t *testing.T) {
	var c *Cache
	if _, ok := c.LookupAnalysis("k"); ok {
		t.Fatal("nil cache reported a hit")
	}
	c.StoreAnalysis("k", &Analysis{}) // must not panic
	if _, err := c.ParseSource(NamedSource{Name: "x", Source: "definition(name: \"x\")\n"}); err != nil {
		t.Fatalf("nil cache ParseSource: %v", err)
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := NewCache()
	var hits atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g+i)%16)
				if an, ok := c.LookupAnalysis(key); ok {
					if an.Checked[0] != key {
						t.Error("hit returned another key's analysis")
						return
					}
					hits.Add(1)
				}
				c.StoreAnalysis(key, &Analysis{Checked: []string{key}})
			}
		}(g)
	}
	wg.Wait()
	if hits.Load() == 0 {
		t.Fatal("no lookup hit a stored analysis")
	}
}
