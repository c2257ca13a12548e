package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"github.com/soteria-analysis/soteria/internal/guard"
	"github.com/soteria-analysis/soteria/internal/guard/faultinject"
	"github.com/soteria-analysis/soteria/internal/ir"
	"github.com/soteria-analysis/soteria/internal/obs"
)

// BatchItem is one unit of a batch analysis: a single app or a
// multi-app environment, identified by Key in the results. Provide
// either Sources or pre-parsed Apps; when both are set, Apps wins.
type BatchItem struct {
	Key     string
	Sources []NamedSource
	Apps    []*ir.App
}

// BatchResult pairs an item with its outcome. Exactly one of Analysis
// and Err is nil: hard input errors (unparseable apps) land in Err,
// while contained faults and budget exhaustion come back as a partial
// Analysis with Incomplete set — the same contract as
// AnalyzeAppsContext, preserved per item.
type BatchResult struct {
	Key      string
	Analysis *Analysis
	Err      error
}

// BatchOptions configures a batch run.
type BatchOptions struct {
	// Options applies to every item.
	Options
	// Parallel bounds the number of items analyzed concurrently;
	// 0 defaults to GOMAXPROCS, values below 2 run sequentially.
	Parallel int
}

// AnalyzeBatch analyzes the items with a bounded worker pool and
// returns one result per item, in input order. Each item runs inside
// its own recovery boundary: a contained panic or exhausted budget in
// one item degrades only that item's result and never loses the
// others. Cancellation of ctx stops unstarted items promptly (their
// results carry the cancellation as Err) while started items degrade
// cooperatively through their budgets.
func AnalyzeBatch(ctx context.Context, bo BatchOptions, items ...BatchItem) []BatchResult {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]BatchResult, len(items))
	workers := bo.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(items) {
		workers = len(items)
	}
	if workers <= 1 {
		for i := range items {
			results[i] = analyzeItem(ctx, bo, items[i])
		}
		return results
	}
	var wg sync.WaitGroup
	ch := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				results[i] = analyzeItem(ctx, bo, items[i])
			}
		}()
	}
	for i := range items {
		ch <- i
	}
	close(ch)
	wg.Wait()
	return results
}

// analyzeItem runs one batch item through the same front door as a
// single analysis: AnalyzeSourcesContext for Sources items,
// AnalyzeAppsContext for Apps items. The recovery boundary contains
// panics that would otherwise escape between pipeline boundaries (e.g.
// an injected fault at the batch-item site) so sibling items are
// unaffected.
func analyzeItem(ctx context.Context, bo BatchOptions, it BatchItem) BatchResult {
	// The item span nests the whole per-item pipeline (ir → statemodel →
	// kripke → check) under one node of the job's trace tree.
	ctx, isp := obs.StartSpan(ctx, "item")
	isp.Set("key", it.Key)
	defer isp.End()

	br := BatchResult{Key: it.Key}
	if err := ctx.Err(); err != nil {
		br.Err = fmt.Errorf("batch %s: %w", it.Key, err)
		return br
	}
	err := guard.Run("batch.item", func() error {
		faultinject.HitKey(faultinject.SiteBatchItem, it.Key)
		var err error
		if len(it.Apps) > 0 {
			br.Analysis, err = AnalyzeAppsContext(ctx, bo.Options, it.Apps...)
		} else {
			br.Analysis, err = AnalyzeSourcesContext(ctx, bo.Options, it.Sources...)
		}
		return err
	})
	if err != nil {
		// A fault that escaped the per-item pipeline (rather than being
		// contained inside it) still yields a structured per-item
		// failure instead of tearing down the batch.
		br.Analysis = nil
		br.Err = fmt.Errorf("batch %s: %w", it.Key, err)
	}
	return br
}
