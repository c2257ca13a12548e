// The Record type is the serving tier's wire and storage format: a
// versioned, fully deterministic JSON encoding of an analysis result.
// Determinism is load-bearing — records are stored content-addressed
// (key = hash of sources + options), so two runs over the same input
// must encode to the same bytes. To that end the schema contains no
// maps (struct field order is fixed), all slices are in catalogue or
// input order (the pipeline already sorts them), and run-varying data
// (wall-clock timings, goroutine stacks) is excluded. Any maps added
// to a future schema keep determinism for free: encoding/json sorts
// map keys.
package report

import (
	"encoding/json"
	"fmt"

	"github.com/soteria-analysis/soteria/internal/core"
)

// Schema is the current record schema version. Decode rejects records
// with a different version (treated as a cache miss by the store), so
// a schema change never serves mis-shaped results — it just re-analyzes.
// Version 2 added the taint_flows section (T.1–T.6 sensitive-data-flow
// findings).
const Schema = 2

// Record is one analysis result in schema-versioned form.
type Record struct {
	Schema int `json:"schema"`
	// Apps names the analyzed apps, in input order.
	Apps []string `json:"apps"`
	// States/Transitions describe the (reduced) state model.
	States                int `json:"states"`
	StatesBeforeReduction int `json:"states_before_reduction"`
	Transitions           int `json:"transitions"`
	// Violations are in catalogue order (S.1–S.5, P.1–P.30, T.1–T.6, ND).
	Violations []Violation `json:"violations"`
	// TaintFlows are the sensitive-data-flow findings, sorted. They are
	// persisted in full (not just as violations) so store hits serve
	// the same flow sections a fresh analysis would.
	TaintFlows []TaintFlow `json:"taint_flows"`
	// Checked lists the fully decided app-specific property IDs.
	Checked []string `json:"checked"`
	// Incomplete marks partial results (budget, cancellation, contained
	// fault); Diagnostics explain what was skipped.
	Incomplete  bool         `json:"incomplete"`
	Diagnostics []Diagnostic `json:"diagnostics"`
	// Timing carries the job's trace ID and span tree when the request
	// asked for timings. It is attached per response by the serving
	// tier and never set by FromAnalysis nor persisted: timing data is
	// run-varying and must stay out of the content-addressed bytes.
	Timing *Timing `json:"timing,omitempty"`
}

// Violation is one property violation in record form.
type Violation struct {
	ID             string   `json:"id"`
	Kind           string   `json:"kind"`
	Description    string   `json:"description"`
	Detail         string   `json:"detail"`
	Apps           []string `json:"apps,omitempty"`
	Counterexample string   `json:"counterexample,omitempty"`
}

// TaintFlow is one sensitive-data flow in record form: a source
// reaching a transmission sink with a satisfiable path condition and a
// rendered witness path.
type TaintFlow struct {
	ID          string   `json:"id"`
	App         string   `json:"app"`
	Handler     string   `json:"handler"`
	Event       string   `json:"event"`
	Source      string   `json:"source"`
	SourceClass string   `json:"source_class"`
	Via         string   `json:"via,omitempty"`
	Sink        string   `json:"sink"`
	Channel     string   `json:"channel"`
	Line        int      `json:"line"`
	Condition   string   `json:"condition"`
	Witness     []string `json:"witness"`
}

// Diagnostic is one contained failure in record form. Stacks are
// deliberately dropped: they vary run to run (addresses, goroutine
// IDs) and would break byte-stability.
type Diagnostic struct {
	Stage    string `json:"stage"`
	Property string `json:"property,omitempty"`
	Engine   string `json:"engine,omitempty"`
	Kind     string `json:"kind"`
	Message  string `json:"message"`
}

// FromAnalysis converts a pipeline analysis into its record form.
func FromAnalysis(an *core.Analysis) *Record {
	rec := &Record{
		Schema:      Schema,
		Apps:        []string{},
		Violations:  []Violation{},
		TaintFlows:  []TaintFlow{},
		Checked:     append([]string{}, an.Checked...),
		Incomplete:  an.Incomplete,
		Diagnostics: []Diagnostic{},
	}
	for _, app := range an.Apps {
		rec.Apps = append(rec.Apps, app.Name)
	}
	if an.Model != nil {
		rec.States = len(an.Model.States)
		rec.StatesBeforeReduction = an.Model.StatesBeforeReduction
		rec.Transitions = an.Model.NumTransitions()
	}
	for _, v := range an.Violations {
		rec.Violations = append(rec.Violations, Violation{
			ID:             v.ID,
			Kind:           v.Kind.String(),
			Description:    v.Description,
			Detail:         v.Detail,
			Apps:           v.Apps,
			Counterexample: v.Counterexample,
		})
	}
	for _, f := range an.TaintFlows {
		rec.TaintFlows = append(rec.TaintFlows, TaintFlow{
			ID:          f.ID,
			App:         f.App,
			Handler:     f.Handler,
			Event:       f.Event,
			Source:      f.Source,
			SourceClass: f.SourceClass,
			Via:         f.Via,
			Sink:        f.Sink,
			Channel:     f.Channel,
			Line:        f.Line,
			Condition:   f.Condition,
			Witness:     f.Witness,
		})
	}
	for _, d := range an.Diagnostics {
		rec.Diagnostics = append(rec.Diagnostics, Diagnostic{
			Stage:    d.Stage,
			Property: d.Property,
			Engine:   d.Engine,
			Kind:     string(d.Kind),
			Message:  d.Message,
		})
	}
	return rec
}

// Encode renders a record as canonical JSON: compact, fixed field
// order, trailing newline. Byte-equal for equal records.
func Encode(rec *Record) ([]byte, error) {
	b, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("report: encoding record: %w", err)
	}
	return append(b, '\n'), nil
}

// Decode parses and validates a record. A syntactically valid record
// with the wrong schema version is an error too — callers (the store's
// corruption-tolerant read path) treat any error as a miss.
func Decode(data []byte) (*Record, error) {
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("report: decoding record: %w", err)
	}
	if rec.Schema != Schema {
		return nil, fmt.Errorf("report: record schema %d, want %d", rec.Schema, Schema)
	}
	return &rec, nil
}
