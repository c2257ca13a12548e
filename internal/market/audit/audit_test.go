package audit

import (
	"context"
	"fmt"
	"testing"

	"github.com/soteria-analysis/soteria/internal/core"
	"github.com/soteria-analysis/soteria/internal/market"
	"github.com/soteria-analysis/soteria/internal/properties"
)

func fingerprint(r *Report) string {
	var sb []byte
	for _, es := range [][]Entry{r.Apps, r.Groups} {
		for _, e := range es {
			sb = fmt.Appendf(sb, "%s=%v/%v/%v;", e.ID, e.Violated, e.Incomplete, e.Err != nil)
		}
	}
	return string(sb)
}

// itemSources rebuilds the sources Run analyzes for an app or group
// ID, so the test can address the cache by content key.
func itemSources(t *testing.T, id string, members []string) []core.NamedSource {
	t.Helper()
	if members == nil {
		members = []string{id}
	}
	var srcs []core.NamedSource
	for _, m := range members {
		a, ok := market.ByID(m)
		if !ok {
			t.Fatalf("%s: unknown corpus app %s", id, m)
		}
		srcs = append(srcs, core.NamedSource{Name: a.Name, Source: a.Source})
	}
	return srcs
}

func TestRunCacheInteraction(t *testing.T) {
	items := len(market.All()) + len(market.Groups())
	cache := core.NewCache()

	first := Run(context.Background(), 4, cache)
	if got := len(first.Apps) + len(first.Groups); got != items {
		t.Fatalf("audit produced %d entries, corpus has %d items", got, items)
	}
	// Every app and group was stored under its content key.
	for _, es := range [][]Entry{first.Apps, first.Groups} {
		for _, e := range es {
			key := core.AnalysisKey(itemSources(t, e.ID, e.Members), core.DefaultOptions())
			if _, ok := cache.LookupAnalysis(key); !ok {
				t.Errorf("%s: no cached analysis after the first audit", e.ID)
			}
		}
	}

	// Plant a marked analysis under one app's key: the second audit
	// must report it, which proves the audit looks the cache up.
	planted := first.Apps[0].ID
	cache.StoreAnalysis(
		core.AnalysisKey(itemSources(t, planted, nil), core.DefaultOptions()),
		&core.Analysis{Violations: []properties.Violation{{ID: "PLANTED"}}})
	second := Run(context.Background(), 4, cache)
	if got := fmt.Sprint(second.Apps[0].Violated); got != "[PLANTED]" {
		t.Fatalf("%s: second audit reported %s, want the planted [PLANTED]", planted, got)
	}
	second.Apps[0] = first.Apps[0]
	if fingerprint(first) != fingerprint(second) {
		t.Error("cached audit differs from the cold one")
	}

	// The cache is optional: a nil cache must not change the verdicts.
	uncached := Run(context.Background(), 4, nil)
	if fingerprint(first) != fingerprint(uncached) {
		t.Error("uncached audit differs from the cached one")
	}
}

func TestRunViolationOrdering(t *testing.T) {
	rep := Run(context.Background(), 4, nil)

	apps := market.All()
	if len(rep.Apps) != len(apps) {
		t.Fatalf("%d app entries for %d corpus apps", len(rep.Apps), len(apps))
	}
	for i, e := range rep.Apps {
		if e.ID != apps[i].ID {
			t.Errorf("entry %d is %s, corpus order says %s", i, e.ID, apps[i].ID)
		}
		if e.Members != nil {
			t.Errorf("individual app %s carries group members %v", e.ID, e.Members)
		}
	}
	groups := market.Groups()
	if len(rep.Groups) != len(groups) {
		t.Fatalf("%d group entries for %d groups", len(rep.Groups), len(groups))
	}
	for i, e := range rep.Groups {
		if e.ID != groups[i].ID {
			t.Errorf("group entry %d is %s, want %s", i, e.ID, groups[i].ID)
		}
		if len(e.Members) == 0 {
			t.Errorf("group %s lists no members", e.ID)
		}
	}

	someViolations := false
	for _, es := range [][]Entry{rep.Apps, rep.Groups} {
		for _, e := range es {
			if e.Err != nil {
				t.Errorf("%s: hard failure: %v", e.ID, e.Err)
				continue
			}
			seen := map[string]bool{}
			for j, id := range e.Violated {
				someViolations = true
				if seen[id] {
					t.Errorf("%s: duplicate violated ID %s", e.ID, id)
				}
				seen[id] = true
				if j > 0 && properties.IDRank(e.Violated[j-1]) > properties.IDRank(id) {
					t.Errorf("%s: violations out of catalogue order: %s before %s",
						e.ID, e.Violated[j-1], id)
				}
			}
		}
	}
	if !someViolations {
		t.Error("no entry in the whole market audit reports a violation; corpus wiring broken")
	}
}
