package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"time"

	"github.com/soteria-analysis/soteria/internal/core"
	"github.com/soteria-analysis/soteria/internal/properties"
	"github.com/soteria-analysis/soteria/internal/taint"
)

// httpError is a client-visible request failure. Every path out of the
// decoder returns one with a 4xx status — malformed, oversized, and
// semantically invalid requests must never panic and never map to 5xx.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func tooLarge(format string, args ...any) *httpError {
	return &httpError{code: http.StatusRequestEntityTooLarge, msg: fmt.Sprintf(format, args...)}
}

// appSource is one named Groovy source in a request.
type appSource struct {
	Name   string `json:"name"`
	Source string `json:"source"`
}

// requestOptions selects property families and resource bounds for a
// job. Absent booleans default to true (check everything), matching
// core.DefaultOptions.
type requestOptions struct {
	General     *bool    `json:"general,omitempty"`
	AppSpecific *bool    `json:"app_specific,omitempty"`
	Taint       *bool    `json:"taint,omitempty"`
	Properties  []string `json:"properties,omitempty"`
	TimeoutMS   int64    `json:"timeout_ms,omitempty"`
	MaxStates   int      `json:"max_states,omitempty"`
}

// analyzeRequest is the POST /v1/analyze body: one app (name+source)
// or a multi-app union (apps). IdempotencyKey (or the Idempotency-Key
// header) makes resubmissions safe: the key's first accepted job
// answers every retry instead of running again.
type analyzeRequest struct {
	Name           string         `json:"name,omitempty"`
	Source         string         `json:"source,omitempty"`
	Apps           []appSource    `json:"apps,omitempty"`
	Options        requestOptions `json:"options,omitempty"`
	Async          bool           `json:"async,omitempty"`
	IdempotencyKey string         `json:"idempotency_key,omitempty"`
	// Timings embeds the job's span tree (and trace ID) in the
	// response records. Timing data rides the response only — it is
	// never part of the stored, content-addressed record.
	Timings bool `json:"timings,omitempty"`
}

// batchRequest is the POST /v1/batch body.
type batchRequest struct {
	Items          []batchRequestItem `json:"items"`
	Options        requestOptions     `json:"options,omitempty"`
	Async          bool               `json:"async,omitempty"`
	IdempotencyKey string             `json:"idempotency_key,omitempty"`
	// Timings embeds each job's span tree in the response records.
	Timings bool `json:"timings,omitempty"`
}

// validateIdemKey bounds a client-supplied idempotency key: visible
// ASCII, at most 128 bytes — it is journaled and indexed verbatim.
func validateIdemKey(k string) *httpError {
	if len(k) > 128 {
		return badRequest("idempotency key is %d bytes (limit 128)", len(k))
	}
	for i := 0; i < len(k); i++ {
		if k[i] < 0x21 || k[i] > 0x7e {
			return badRequest("idempotency key must be visible ASCII")
		}
	}
	return nil
}

// batchRequestItem is one unit of a batch: an app or multi-app union.
type batchRequestItem struct {
	Key  string      `json:"key,omitempty"`
	Apps []appSource `json:"apps"`
}

// decodeJSON strictly parses data into dst: unknown fields and
// trailing garbage are rejected so schema typos surface as 400s
// instead of silently ignored options.
func decodeJSON(data []byte, dst any) *httpError {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return badRequest("invalid JSON: %v", err)
	}
	var trailing any
	if err := dec.Decode(&trailing); !errors.Is(err, io.EOF) {
		return badRequest("trailing data after JSON body")
	}
	return nil
}

// validateSources checks a request's app list against the per-source
// size cap and non-emptiness.
func validateSources(apps []appSource, maxSource int, where string) *httpError {
	if len(apps) == 0 {
		return badRequest("%s: no app sources", where)
	}
	for i, a := range apps {
		if a.Name == "" {
			return badRequest("%s: app %d has no name", where, i)
		}
		if a.Source == "" {
			return badRequest("%s: app %q has no source", where, a.Name)
		}
		if len(a.Source) > maxSource {
			return tooLarge("%s: app %q source is %d bytes (limit %d)", where, a.Name, len(a.Source), maxSource)
		}
	}
	return nil
}

// coreOptions validates and converts request options. The job's wall
// clock is governed by the server's JobTimeout; a request may lower
// it, never raise it.
func (s *Server) coreOptions(o requestOptions) (core.Options, *httpError) {
	opts := core.DefaultOptions()
	if o.General != nil {
		opts.General = *o.General
	}
	if o.AppSpecific != nil {
		opts.AppSpecific = *o.AppSpecific
	}
	if o.Taint != nil {
		opts.Taint = *o.Taint
	}
	if !opts.General && !opts.AppSpecific && !opts.Taint {
		return opts, badRequest("options: nothing to check (general, app_specific, and taint all disabled)")
	}
	// Valid IDs: the app-specific catalogue plus the taint family
	// (exact IDs and the "T.*" wildcard).
	for _, id := range o.Properties {
		if _, ok := properties.PropertyByID(id); !ok && id != "T.*" && !slices.Contains(taint.IDs(), id) {
			return opts, badRequest("options: unknown property ID %q", id)
		}
	}
	opts.PropertyIDs = append([]string{}, o.Properties...)
	if o.TimeoutMS < 0 {
		return opts, badRequest("options: negative timeout_ms")
	}
	if o.MaxStates < 0 {
		return opts, badRequest("options: negative max_states")
	}
	opts.Limits = s.cfg.Limits
	if o.TimeoutMS > 0 {
		d := time.Duration(o.TimeoutMS) * time.Millisecond
		if d < s.cfg.JobTimeout {
			opts.Limits.Timeout = d
		}
	}
	if o.MaxStates > 0 && (s.cfg.Limits.MaxStates == 0 || o.MaxStates < s.cfg.Limits.MaxStates) {
		opts.Limits.MaxStates = o.MaxStates
	}
	return opts, nil
}

// parseAnalyze decodes and validates a POST /v1/analyze body into a
// ready-to-run job (minus its ID). It is the fuzz target's entry
// point: any input must yield either a job or a 4xx httpError.
func (s *Server) parseAnalyze(data []byte) (*job, *httpError) {
	var req analyzeRequest
	if herr := decodeJSON(data, &req); herr != nil {
		return nil, herr
	}
	apps := req.Apps
	if req.Name != "" || req.Source != "" {
		if len(apps) > 0 {
			return nil, badRequest("provide either name+source or apps, not both")
		}
		apps = []appSource{{Name: req.Name, Source: req.Source}}
	}
	if herr := validateSources(apps, s.cfg.MaxSourceBytes, "analyze"); herr != nil {
		return nil, herr
	}
	opts, herr := s.coreOptions(req.Options)
	if herr != nil {
		return nil, herr
	}
	if herr := validateIdemKey(req.IdempotencyKey); herr != nil {
		return nil, herr
	}
	sources := make([]core.NamedSource, len(apps))
	for i, a := range apps {
		sources[i] = core.NamedSource{Name: a.Name, Source: a.Source}
	}
	return &job{
		idemKey: req.IdempotencyKey,
		items:   []core.BatchItem{{Sources: sources}},
		opts:    opts,
		async:   req.Async,
		timings: req.Timings,
		status:  statusQueued,
		ready:   make(chan struct{}),
		done:    make(chan struct{}),
	}, nil
}

// parseBatch decodes and validates a POST /v1/batch body.
func (s *Server) parseBatch(data []byte) (*job, *httpError) {
	var req batchRequest
	if herr := decodeJSON(data, &req); herr != nil {
		return nil, herr
	}
	if len(req.Items) == 0 {
		return nil, badRequest("batch: no items")
	}
	if len(req.Items) > s.cfg.MaxBatchItems {
		return nil, tooLarge("batch: %d items (limit %d)", len(req.Items), s.cfg.MaxBatchItems)
	}
	if herr := validateIdemKey(req.IdempotencyKey); herr != nil {
		return nil, herr
	}
	opts, herr := s.coreOptions(req.Options)
	if herr != nil {
		return nil, herr
	}
	seen := map[string]bool{}
	items := make([]core.BatchItem, len(req.Items))
	for i, it := range req.Items {
		if herr := validateSources(it.Apps, s.cfg.MaxSourceBytes, fmt.Sprintf("batch item %d", i)); herr != nil {
			return nil, herr
		}
		key := it.Key
		if key == "" {
			key = fmt.Sprintf("item-%d", i)
		}
		if seen[key] {
			return nil, badRequest("batch: duplicate item key %q", key)
		}
		seen[key] = true
		sources := make([]core.NamedSource, len(it.Apps))
		for j, a := range it.Apps {
			sources[j] = core.NamedSource{Name: a.Name, Source: a.Source}
		}
		items[i] = core.BatchItem{Key: key, Sources: sources}
	}
	return &job{
		idemKey: req.IdempotencyKey,
		batch:   true,
		items:   items,
		opts:    opts,
		async:   req.Async,
		timings: req.Timings,
		breq:    &req,
		status:  statusQueued,
		ready:   make(chan struct{}),
		done:    make(chan struct{}),
	}, nil
}
