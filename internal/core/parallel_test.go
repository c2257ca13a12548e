package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/soteria-analysis/soteria/internal/guard/faultinject"
	"github.com/soteria-analysis/soteria/internal/paperapps"
)

// TestParallelPropertyFilterDispatch observes — via fault-injection
// site counters — that a PropertyIDs filter is applied before
// dispatch: only the requested properties ever reach the checker, and
// Checked reflects the filter.
func TestParallelPropertyFilterDispatch(t *testing.T) {
	defer faultinject.Reset()
	faultinject.BeginCount()
	a, err := AnalyzeSources(Options{AppSpecific: true, PropertyIDs: []string{"P.10"}},
		NamedSource{Name: "buggy", Source: paperapps.BuggySmokeAlarm})
	if err != nil {
		t.Fatal(err)
	}
	counts := faultinject.TakeCounts()

	dispatched := map[string]bool{}
	for k := range counts {
		site, id, ok := strings.Cut(k, "|")
		if ok && site == faultinject.SiteProperty {
			dispatched[id] = true
		}
	}
	if len(dispatched) == 0 {
		t.Fatal("no property dispatches observed")
	}
	for id := range dispatched {
		if id != "P.10" {
			t.Errorf("property %s dispatched despite PropertyIDs=[P.10]", id)
		}
	}
	if len(a.Checked) != 1 || a.Checked[0] != "P.10" {
		t.Errorf("Checked = %v, want [P.10]", a.Checked)
	}
	for _, v := range a.Violations {
		if v.ID != "P.10" {
			t.Errorf("unexpected violation %v", v)
		}
	}
	if len(a.Violations) == 0 {
		t.Error("P.10 should be flagged")
	}
}

// render flattens an analysis's violations into a canonical string —
// byte-identical renderings mean identical ordered reports.
func render(a *Analysis) string {
	var b strings.Builder
	for _, v := range a.Violations {
		fmt.Fprintf(&b, "%s|%s|%s\n", v.ID, v.Detail, v.Counterexample)
	}
	return b.String()
}

// TestParallelBatchOrder exercises AnalyzeBatch end to end: results
// arrive in input order and identical items yield identical verdicts.
func TestParallelBatchOrder(t *testing.T) {
	items := []BatchItem{
		{Key: "buggy", Sources: []NamedSource{{Name: "buggy", Source: paperapps.BuggySmokeAlarm}}},
		{Key: "clean", Sources: []NamedSource{{Name: "smoke-alarm", Source: paperapps.SmokeAlarm}}},
		{Key: "buggy-again", Sources: []NamedSource{{Name: "buggy", Source: paperapps.BuggySmokeAlarm}}},
	}
	bo := BatchOptions{Options: DefaultOptions(), Parallel: 3}
	results := AnalyzeBatch(context.Background(), bo, items...)
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		if r.Key != items[i].Key {
			t.Errorf("result %d key = %s, want %s", i, r.Key, items[i].Key)
		}
		if r.Err != nil {
			t.Errorf("%s: %v", r.Key, r.Err)
		}
	}
	if len(results[0].Analysis.Violations) == 0 {
		t.Error("buggy app should have violations")
	}
	if len(results[1].Analysis.Violations) != 0 {
		t.Errorf("clean app violations = %v", results[1].Analysis.Violations)
	}
	if render(results[0].Analysis) != render(results[2].Analysis) {
		t.Error("identical items should produce identical analyses")
	}
}

// TestParallelBatchParseError verifies a hard per-item failure is
// reported on that item only.
func TestParallelBatchParseError(t *testing.T) {
	items := []BatchItem{
		{Key: "bad", Sources: []NamedSource{{Name: "bad", Source: "def h() { if ( }"}}},
		{Key: "good", Sources: []NamedSource{{Name: "smoke-alarm", Source: paperapps.SmokeAlarm}}},
	}
	results := AnalyzeBatch(context.Background(), BatchOptions{Options: DefaultOptions(), Parallel: 2}, items...)
	if results[0].Err == nil {
		t.Error("bad item should fail")
	}
	if results[1].Err != nil || results[1].Analysis == nil {
		t.Errorf("good item should succeed: %+v", results[1])
	}
}

// TestParallelBatchCancellation verifies canceled contexts surface as
// per-item errors rather than hanging or panicking.
func TestParallelBatchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	items := []BatchItem{
		{Key: "a", Sources: []NamedSource{{Name: "smoke-alarm", Source: paperapps.SmokeAlarm}}},
	}
	results := AnalyzeBatch(ctx, BatchOptions{Options: DefaultOptions(), Parallel: 2}, items...)
	if results[0].Err == nil && (results[0].Analysis == nil || !results[0].Analysis.Incomplete) {
		t.Errorf("canceled batch should degrade: %+v", results[0])
	}
}
