package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"time"

	"github.com/soteria-analysis/soteria/internal/core"
	"github.com/soteria-analysis/soteria/internal/ctl"
	"github.com/soteria-analysis/soteria/internal/guard"
	"github.com/soteria-analysis/soteria/internal/ir"
	"github.com/soteria-analysis/soteria/internal/kripke"
	"github.com/soteria-analysis/soteria/internal/modelcheck"
	"github.com/soteria-analysis/soteria/internal/properties"
	"github.com/soteria-analysis/soteria/internal/statemodel"
	"github.com/soteria-analysis/soteria/internal/taint"
)

// span is one recorded interval of a traced run, written as one JSONL
// line. Spans of one analysis or request share Item; Parent is the ID
// of the enclosing span (0 for a root).
type span struct {
	Item    string  `json:"item"`
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent,omitempty"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	// Allocs counts heap objects allocated inside the span (audit runs).
	Allocs int64 `json:"allocs,omitempty"`
	// Count is the span's unit of work: apps parsed, states built,
	// properties swept, formulas checked, or flows found.
	Count int64 `json:"count,omitempty"`
	// MemoHits and MemoLookups are the modelcheck span's subformula
	// memo counters.
	MemoHits    int64 `json:"memo_hits,omitempty"`
	MemoLookups int64 `json:"memo_lookups,omitempty"`
}

// tracer keeps a traced run's spans in memory until the run ends. One
// goroutine uses it: the process-wide allocation counter it reads is
// attributable to a span only while a single analysis runs.
type tracer struct {
	origin time.Time
	sample []metrics.Sample
	lastID int64
	spans  []span
}

func newTracer() *tracer {
	return &tracer{
		origin: time.Now(),
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}},
	}
}

// mark is a span boundary: a time and the allocation count there.
type mark struct {
	t      time.Time
	allocs uint64
}

// begin reads the allocation counter before the clock, and end reads
// it after, so the counter reads stay outside the span's duration.
// runtime/metrics counts small allocations when a span of the
// allocator is refilled, so one span's count is approximate; means
// over many analyses are not biased.
func (t *tracer) begin() mark {
	metrics.Read(t.sample)
	return mark{allocs: t.sample[0].Value.Uint64(), t: time.Now()}
}

func (t *tracer) end() mark {
	now := time.Now()
	metrics.Read(t.sample)
	return mark{t: now, allocs: t.sample[0].Value.Uint64()}
}

func (t *tracer) newID() int64 {
	t.lastID++
	return t.lastID
}

// record adds the span [from, to] named name under parent.
func (t *tracer) record(item string, id, parent int64, name string, from, to mark, count int64) {
	t.spans = append(t.spans, t.span(item, id, parent, name, from, to, count))
}

func (t *tracer) span(item string, id, parent int64, name string, from, to mark, count int64) span {
	return span{
		Item: item, ID: id, Parent: parent, Name: name,
		StartUS: float64(from.t.Sub(t.origin)) / 1e3,
		DurUS:   float64(to.t.Sub(from.t)) / 1e3,
		Allocs:  int64(to.allocs - from.allocs),
		Count:   count,
	}
}

// analyze runs one analysis layer by layer through each layer's public
// entry point, recording a span around every layer. The sequence is the
// one core.AnalyzeSourcesContext takes when the explicit engine decides
// every property (its fallback engines never run on this corpus); the
// equivalence test holds the two to the same verdicts and state counts.
func (t *tracer) analyze(ctx context.Context, item string, srcs []core.NamedSource) ([]string, int, error) {
	root, rootID := t.begin(), t.newID()
	b := guard.New(ctx, guard.Limits{})

	from := t.begin()
	apps := make([]*ir.App, 0, len(srcs))
	for _, s := range srcs {
		app, err := ir.BuildSource(s.Name, s.Source)
		if err != nil {
			return nil, 0, fmt.Errorf("parsing %s: %w", s.Name, err)
		}
		apps = append(apps, app)
	}
	t.record(item, t.newID(), rootID, "ir", from, t.end(), int64(len(apps)))

	from = t.begin()
	m, err := statemodel.BuildBudget(b, statemodel.Options{}, apps...)
	if err != nil {
		return nil, 0, fmt.Errorf("state model: %w", err)
	}
	t.record(item, t.newID(), rootID, "statemodel", from, t.end(), int64(len(m.States)))

	from = t.begin()
	k := kripke.FromModel(m)
	t.record(item, t.newID(), rootID, "kripke", from, t.end(), int64(k.N))

	from = t.begin()
	violations := properties.CheckGeneralBudget(m, b)
	t.record(item, t.newID(), rootID, "properties.general", from, t.end(), int64(len(violations)))

	// The sweep builds every applicable formula, then checks them one
	// after another, then merges the outcomes; the modelcheck span runs
	// from the first check's start to the last check's end.
	memo := modelcheck.NewMemo()
	var first, last mark
	checks := 0
	sweepID := t.newID()
	from = t.begin()
	rep := properties.CheckAppSpecificOpts(m, func(_ string, f ctl.Formula) properties.PropertyOutcome {
		if checks == 0 {
			first = t.begin()
		}
		checks++
		r := modelcheck.CheckMemoBudget(k, f, b, memo)
		out := properties.PropertyOutcome{Holds: r.Holds, FailingStates: len(r.FailingStates), Engine: string(core.Explicit)}
		if !r.Holds && len(r.Counterexample) > 0 {
			out.Counterexample = k.RenderPath(r.Counterexample)
		}
		last = t.end()
		return out
	}, properties.SweepOptions{})
	t.record(item, sweepID, rootID, "properties.sweep", from, t.end(), int64(len(rep.Checked)))
	if checks > 0 {
		st := memo.Stats()
		mc := t.span(item, t.newID(), sweepID, "modelcheck", first, last, int64(checks))
		mc.MemoHits, mc.MemoLookups = int64(st.Hits), int64(st.Lookups)
		t.spans = append(t.spans, mc)
	}
	if rep.Incomplete {
		return nil, 0, fmt.Errorf("property sweep incomplete: %v", rep.Diagnostics)
	}
	violations = append(violations, rep.Violations...)

	from = t.begin()
	flows := taint.FromModel(m, nil)
	violations = append(violations, taint.Violations(flows)...)
	t.record(item, t.newID(), rootID, "taint", from, t.end(), int64(len(flows)))

	properties.SortViolations(violations)
	an := core.Analysis{Violations: violations}
	ids := an.ViolatedIDs()
	t.record(item, rootID, 0, "core", root, t.end(), int64(len(srcs)))
	return ids, len(m.States), nil
}

// auditMetrics derives the per-layer metrics of an audit run from its
// spans: each layer's mean self time and self allocations per analysis
// (self = the span minus its child spans), plus the layer counters.
func auditMetrics(spans []span) map[string]float64 {
	childDur := map[int64]float64{}
	childAllocs := map[int64]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			childDur[s.Parent] += s.DurUS
			childAllocs[s.Parent] += s.Allocs
		}
	}
	selfUS := map[string]float64{}
	selfAllocs := map[string]float64{}
	count := map[string]float64{}
	var items, rootUS, layerUS, memoHits, memoLookups float64
	for _, s := range spans {
		selfUS[s.Name] += s.DurUS - childDur[s.ID]
		selfAllocs[s.Name] += float64(s.Allocs - childAllocs[s.ID])
		count[s.Name] += float64(s.Count)
		switch {
		case s.Parent == 0:
			items++
			rootUS += s.DurUS
		case s.Name != "modelcheck":
			layerUS += s.DurUS // the root's children cover the modelcheck span
		}
		memoHits += float64(s.MemoHits)
		memoLookups += float64(s.MemoLookups)
	}
	v := map[string]float64{}
	if items == 0 {
		return v
	}
	for _, l := range []string{"ir", "statemodel", "kripke", "modelcheck", "taint"} {
		v[l+".self_ms"] = selfUS[l] / items / 1e3
		if l != "taint" {
			v[l+".allocs"] = selfAllocs[l] / items
		}
	}
	v["properties.general_ms"] = selfUS["properties.general"] / items / 1e3
	v["properties.sweep_ms"] = selfUS["properties.sweep"] / items / 1e3
	v["statemodel.states"] = count["statemodel"] / items
	if count["statemodel"] > 0 {
		v["statemodel.us_per_state"] = selfUS["statemodel"] / count["statemodel"]
	}
	if memoLookups > 0 {
		v["modelcheck.memo_hit_share"] = memoHits / memoLookups
	}
	v["taint.flows"] = count["taint"] / items
	v["core.wall_ms"] = rootUS / items / 1e3
	v["trace.coverage"] = layerUS / rootUS
	return v
}

// writeSpans writes spans as JSONL.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
