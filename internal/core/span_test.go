package core

import (
	"context"
	"testing"

	"github.com/soteria-analysis/soteria/internal/obs"
	"github.com/soteria-analysis/soteria/internal/paperapps"
)

// spanShape runs one traced analysis and returns the order-insensitive
// span-tree shape.
func spanShape(t *testing.T) string {
	t.Helper()
	root := obs.NewRoot("analysis")
	ctx := obs.WithSpan(context.Background(), root)
	_, err := AnalyzeSourcesContext(ctx, DefaultOptions(),
		NamedSource{Name: "smoke-alarm", Source: paperapps.SmokeAlarm})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	root.End()
	return root.SortedShape()
}

// TestSpanTreeDeterministic: two identical analyses produce span trees
// of identical shape — same phases, same properties, same engine
// attempts. Timing varies run to run; structure must not.
func TestSpanTreeDeterministic(t *testing.T) {
	first := spanShape(t)
	if first == "" {
		t.Fatal("empty span shape")
	}
	for run := 0; run < 2; run++ {
		if got := spanShape(t); got != first {
			t.Fatalf("run %d shape diverged:\n%s\n---\n%s", run, got, first)
		}
	}
}

// TestSpanTreeStructure pins the tree's skeleton: the analysis root
// carries the pipeline phases in order, and each property span names
// the engine that decided it and its verdict.
func TestSpanTreeStructure(t *testing.T) {
	root := obs.NewRoot("analysis")
	ctx := obs.WithSpan(context.Background(), root)
	_, err := AnalyzeSourcesContext(ctx, DefaultOptions(),
		NamedSource{Name: "smoke-alarm", Source: paperapps.SmokeAlarm})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	root.End()

	var phases []string
	props := 0
	root.Walk(func(depth int, sp *obs.Span) {
		switch sp.Name() {
		case "statemodel", "kripke", "check.general", "check":
			phases = append(phases, sp.Name())
		case "property":
			props++
			id, _ := sp.Str("id")
			if v, ok := sp.Str("verdict"); !ok || v == "" {
				t.Errorf("property %s has no verdict", id)
			}
			if e, ok := sp.Str("engine"); !ok || e == "" {
				t.Errorf("property %s has no engine", id)
			}
			if n := len(sp.Children()); n != 0 {
				t.Errorf("property %s has %d child spans, want none", id, n)
			}
		}
	})
	want := []string{"statemodel", "kripke", "check.general", "check"}
	if len(phases) != len(want) {
		t.Fatalf("phases = %v, want %v", phases, want)
	}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("phases = %v, want %v", phases, want)
		}
	}
	if props == 0 {
		t.Fatal("no property spans")
	}
}

// TestBatchItemSpanShape: a batch item built from Sources runs the
// same pipeline as AnalyzeSourcesContext. Under its item span it has
// the single call's shape, with exactly one ir span — the span the
// daemon's ir phase histogram is filled from.
func TestBatchItemSpanShape(t *testing.T) {
	src := NamedSource{Name: "smoke-alarm", Source: paperapps.SmokeAlarm}
	single := obs.NewRoot("item")
	if _, err := AnalyzeSourcesContext(obs.WithSpan(context.Background(), single), DefaultOptions(), src); err != nil {
		t.Fatalf("analyze: %v", err)
	}
	single.End()

	job := obs.NewRoot("job")
	r := AnalyzeBatch(obs.WithSpan(context.Background(), job), BatchOptions{Options: DefaultOptions(), Parallel: 1},
		BatchItem{Key: "smoke", Sources: []NamedSource{src}})[0]
	job.End()
	if r.Err != nil {
		t.Fatalf("batch item: %v", r.Err)
	}
	items := job.Children()
	if len(items) != 1 || items[0].Name() != "item" {
		t.Fatalf("job children = %s, want one item span", job.Shape())
	}
	if got, want := items[0].SortedShape(), single.SortedShape(); got != want {
		t.Errorf("batch item shape diverges from AnalyzeSourcesContext:\n%s\n---\n%s", got, want)
	}
	irs := 0
	items[0].Walk(func(_ int, sp *obs.Span) {
		if sp.Name() == "ir" {
			irs++
		}
	})
	if irs != 1 {
		t.Errorf("batch item has %d ir spans, want 1", irs)
	}
}

// Benchmarks for the tracing overhead budget: the traced variant must
// stay within a few percent of the untraced one (soteria-bench
// -obs-bench enforces <3% on medians).
func benchAnalyze(b *testing.B, traced bool) {
	src := NamedSource{Name: "smoke-alarm", Source: paperapps.SmokeAlarm}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx := context.Background()
		var root *obs.Span
		if traced {
			root = obs.NewRoot("bench")
			ctx = obs.WithSpan(ctx, root)
		}
		if _, err := AnalyzeSourcesContext(ctx, DefaultOptions(), src); err != nil {
			b.Fatal(err)
		}
		root.End()
	}
}

func BenchmarkAnalyzeUntraced(b *testing.B) { benchAnalyze(b, false) }
func BenchmarkAnalyzeTraced(b *testing.B)   { benchAnalyze(b, true) }
