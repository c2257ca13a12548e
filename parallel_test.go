package soteria

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/soteria-analysis/soteria/internal/guard/faultinject"
	"github.com/soteria-analysis/soteria/internal/market"
	"github.com/soteria-analysis/soteria/internal/market/audit"
	"github.com/soteria-analysis/soteria/internal/paperapps"
)

// renderAudit flattens an audit report into one canonical string;
// byte-identical renderings mean identical verdicts in identical
// order.
func renderAudit(rep *audit.Report) string {
	var b strings.Builder
	row := func(e audit.Entry) {
		fmt.Fprintf(&b, "%s incomplete=%t err=%t violated=%s\n",
			e.ID, e.Incomplete, e.Err != nil, strings.Join(e.Violated, ","))
	}
	for _, e := range rep.Apps {
		row(e)
	}
	for _, e := range rep.Groups {
		row(e)
	}
	return b.String()
}

// TestParallelBatchMarketCorpus audits the full 65-app market corpus
// (plus the Table 4 groups) sequentially and with eight batch workers
// and requires byte-identical verdicts in identical order.
func TestParallelBatchMarketCorpus(t *testing.T) {
	ctx := context.Background()
	seq := audit.Run(ctx, 1)
	par := audit.Run(ctx, 8)

	if len(seq.Apps) != len(market.All()) {
		t.Fatalf("audited %d apps, corpus has %d", len(seq.Apps), len(market.All()))
	}
	for _, e := range seq.Apps {
		if e.Err != nil {
			t.Fatalf("%s: %v", e.ID, e.Err)
		}
	}
	if got, want := renderAudit(par), renderAudit(seq); got != want {
		t.Errorf("parallel audit diverges from sequential:\n--- sequential ---\n%s--- parallel ---\n%s", want, got)
	}

	// Sanity: the corpus ground truth still holds under parallelism.
	violated := map[string][]string{}
	for _, e := range par.Apps {
		if len(e.Violated) > 0 {
			violated[e.ID] = e.Violated
		}
	}
	for id, want := range market.Table3Expected {
		got := map[string]bool{}
		for _, v := range violated[id] {
			got[v] = true
		}
		for _, w := range want {
			if !got[w] {
				t.Errorf("%s: expected violation %s missing (got %v)", id, w, violated[id])
			}
		}
	}
}

// TestParallelBatchFaultIsolation injects a panic into one batch
// item's worker and verifies the failure is contained: the victim
// degrades, every other item's verdict is unchanged.
func TestParallelBatchFaultIsolation(t *testing.T) {
	ctx := context.Background()
	baseline := audit.Run(ctx, 4)

	defer faultinject.Reset()
	faultinject.ArmPanic(faultinject.SiteBatchItem, "TP3")
	faulted := audit.Run(ctx, 4)

	if len(faulted.Apps) != len(baseline.Apps) {
		t.Fatalf("faulted audit lost entries: %d vs %d", len(faulted.Apps), len(baseline.Apps))
	}
	for i, e := range faulted.Apps {
		want := baseline.Apps[i]
		if e.ID == "TP3" {
			if e.Err == nil && !e.Incomplete {
				t.Errorf("TP3 should degrade under an injected worker panic: %+v", e)
			}
			continue
		}
		if e.Err != nil {
			t.Errorf("%s: unexpected error: %v", e.ID, e.Err)
		}
		if strings.Join(e.Violated, ",") != strings.Join(want.Violated, ",") {
			t.Errorf("%s: verdicts changed under sibling fault: %v vs %v", e.ID, e.Violated, want.Violated)
		}
	}
	for i, e := range faulted.Groups {
		want := baseline.Groups[i]
		if strings.Join(e.Violated, ",") != strings.Join(want.Violated, ",") {
			t.Errorf("group %s: verdicts changed under sibling fault: %v vs %v", e.ID, e.Violated, want.Violated)
		}
	}
}

// TestParallelReportDeterminism renders violation reports from
// concurrent batch analyses of the same buggy environment and requires
// them byte-identical to a sequential run — catalogue order,
// independent of scheduling.
func TestParallelReportDeterminism(t *testing.T) {
	apps := []*App{
		parse(t, "buggy-smoke-alarm", paperapps.BuggySmokeAlarm),
		parse(t, "water-leak-detector", paperapps.WaterLeakDetector),
	}
	renderResult := func(res *Result) string {
		var b strings.Builder
		for _, v := range res.Violations {
			fmt.Fprintf(&b, "%s|%s|%s|%s\n", v.ID, v.Kind, v.Detail, v.Counterexample)
		}
		fmt.Fprintf(&b, "checked=%s\n", strings.Join(res.Checked, ","))
		return b.String()
	}

	seq, err := AnalyzeEnvironment(apps)
	if err != nil {
		t.Fatal(err)
	}
	want := renderResult(seq)
	if want == "" {
		t.Fatal("buggy environment should produce violations")
	}
	items := make([]BatchItem, 8)
	for i := range items {
		items[i] = BatchItem{Key: fmt.Sprintf("env-%d", i), Apps: apps}
	}
	for _, r := range AnalyzeBatch(context.Background(), 8, items) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Key, r.Err)
		}
		if got := renderResult(r.Result); got != want {
			t.Errorf("%s: batch report differs from sequential:\n--- want ---\n%s--- got ---\n%s", r.Key, want, got)
		}
	}
}

// TestParallelBatchPublicAPI drives the exported batch surface:
// per-item environments and input-order results.
func TestParallelBatchPublicAPI(t *testing.T) {
	items := []BatchItem{
		{Key: "buggy", Apps: []*App{parse(t, "buggy", paperapps.BuggySmokeAlarm)}},
		{Key: "pair", Apps: []*App{
			parse(t, "smoke-alarm", paperapps.SmokeAlarm),
			parse(t, "water-leak", paperapps.WaterLeakDetector),
		}},
	}
	results := AnalyzeBatch(context.Background(), 2, items)
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Key != "buggy" || results[1].Key != "pair" {
		t.Errorf("results out of order: %s, %s", results[0].Key, results[1].Key)
	}
	if results[0].Err != nil || len(results[0].Result.Violations) == 0 {
		t.Errorf("buggy item should report violations: %+v", results[0])
	}
	if results[1].Err != nil || results[1].Result == nil {
		t.Fatalf("pair item failed: %+v", results[1])
	}
	if got := results[1].Result.Apps; len(got) != 2 {
		t.Errorf("pair result apps = %v", got)
	}
}
