// Package soteria is the public API of the Soteria IoT safety and
// security analyzer, a from-scratch reproduction of "Soteria:
// Automated IoT Safety and Security Analysis" (Celik, McDaniel, Tan —
// USENIX ATC 2018).
//
// Soteria statically validates whether a SmartThings IoT app — or an
// environment of several apps installed together — adheres to a set of
// safety, security, and functional properties. It parses the app's
// Groovy source into an intermediate representation, extracts a finite
// state model (device attributes × values, event/predicate-labeled
// transitions, with property abstraction collapsing numeric
// attributes), and model-checks the model against five general
// properties (S.1–S.5), thirty application-specific properties
// (P.1–P.30), six sensitive-data-flow properties (T.1–T.6, SainT-style
// taint tracking from device/location/user-input sources to
// messaging and network sinks), and any user-supplied CTL formula.
//
// Quick start:
//
//	app, err := soteria.ParseApp("my-app", source)
//	res, err := soteria.Analyze(app)
//	for _, v := range res.Violations {
//	    fmt.Println(v)
//	}
//
// Multi-app environments (paper §4.4) are analyzed with
// AnalyzeEnvironment, which extracts one joint state model over the
// apps' merged variables and reveals interactions invisible in
// isolation.
package soteria

import (
	"context"
	"fmt"
	"log/slog"
	"time"

	"github.com/soteria-analysis/soteria/internal/cluster"
	"github.com/soteria-analysis/soteria/internal/core"
	"github.com/soteria-analysis/soteria/internal/fsio"
	"github.com/soteria-analysis/soteria/internal/guard"
	"github.com/soteria-analysis/soteria/internal/ir"
	"github.com/soteria-analysis/soteria/internal/properties"
	"github.com/soteria-analysis/soteria/internal/report"
	"github.com/soteria-analysis/soteria/internal/service"
	"github.com/soteria-analysis/soteria/internal/store"
	"github.com/soteria-analysis/soteria/internal/taint"
)

// App is a parsed SmartThings app.
type App struct {
	// Name is the app's name (from its definition block, or the name
	// passed to ParseApp).
	Name string
	ir   *ir.App
}

// ParseApp parses SmartThings Groovy source and extracts the app's
// intermediate representation. Parse errors are returned, but a
// best-effort App is still usable for diagnostics when err != nil and
// app != nil.
func ParseApp(name, source string) (*App, error) {
	app, err := ir.BuildSource(name, source)
	if app == nil {
		return nil, err
	}
	return &App{Name: app.Name, ir: app}, err
}

// IR renders the app's intermediate representation in the paper's
// textual format (permissions block, events/actions block, entry
// points).
func (a *App) IR() string { return ir.Print(a.ir) }

// Devices returns the capability names of the devices the app is
// granted.
func (a *App) Devices() []string { return a.ir.Capabilities() }

// Warnings returns non-fatal extraction diagnostics.
func (a *App) Warnings() []string { return append([]string{}, a.ir.Warnings...) }

// UsesReflection reports whether the app performs call by reflection
// (which Soteria over-approximates and may yield false positives,
// paper §7).
func (a *App) UsesReflection() bool { return a.ir.UsesReflection }

// ViolationKind classifies a violation.
type ViolationKind string

// Violation kinds.
const (
	// GeneralViolation is an S.1–S.5 violation.
	GeneralViolation ViolationKind = "general"
	// AppSpecificViolation is a P.1–P.30 violation.
	AppSpecificViolation ViolationKind = "app-specific"
	// NondeterminismViolation flags a nondeterministic state model.
	NondeterminismViolation ViolationKind = "nondeterminism"
	// TaintViolation is a T.1–T.6 sensitive-data-flow violation.
	TaintViolation ViolationKind = "taint"
)

// Violation is one property violation found by the analysis.
type Violation struct {
	// ID is the property identifier: "S.1".."S.5", "P.1".."P.30",
	// "T.1".."T.6", or "ND" for nondeterminism.
	ID          string
	Kind        ViolationKind
	Description string
	Detail      string
	// Apps names the apps contributing to the violation.
	Apps []string
	// Counterexample is a rendered model trace demonstrating the
	// violation, when one exists.
	Counterexample string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s — %s", v.ID, v.Description, v.Detail)
}

// DiagnosticKind classifies a contained analysis failure.
type DiagnosticKind string

// Diagnostic kinds.
const (
	// DiagnosticPanic marks a recovered internal panic.
	DiagnosticPanic DiagnosticKind = "panic"
	// DiagnosticBudget marks resource-budget exhaustion (timeout,
	// state/node/conflict limit) or context cancellation.
	DiagnosticBudget DiagnosticKind = "budget"
	// DiagnosticError marks an ordinary contained stage error.
	DiagnosticError DiagnosticKind = "error"
)

// Diagnostic describes one contained failure of the analysis pipeline.
// Diagnostics accompany partial results: instead of aborting (or
// crashing) the whole analysis, the failing stage or property is
// skipped and recorded here.
type Diagnostic struct {
	// Stage names the pipeline stage that failed ("statemodel",
	// "properties.general", "engine.explicit", ...).
	Stage string
	// Property is the property ID being checked, when applicable.
	Property string
	// Engine is the model-checking engine involved, when applicable.
	Engine string
	Kind   DiagnosticKind
	// Message is the human-readable failure description.
	Message string
}

func (d Diagnostic) String() string {
	s := fmt.Sprintf("[%s] %s", d.Kind, d.Stage)
	if d.Property != "" {
		s += " property=" + d.Property
	}
	if d.Engine != "" {
		s += " engine=" + d.Engine
	}
	return s + ": " + d.Message
}

func diagnosticOf(d guard.Diagnostic) Diagnostic {
	return Diagnostic{
		Stage:    d.Stage,
		Property: d.Property,
		Engine:   d.Engine,
		Kind:     DiagnosticKind(d.Kind),
		Message:  d.Message,
	}
}

// Limits bounds an analysis run. The zero value means "unlimited" for
// every resource; see WithLimits.
type Limits struct {
	// Timeout is the wall-clock budget for the whole analysis.
	Timeout time.Duration
	// MaxStates caps state-model enumeration (and LTL product
	// exploration).
	MaxStates int
	// MaxBDDNodes caps BDD allocation in the symbolic engine.
	MaxBDDNodes int
	// MaxSATConflicts caps DPLL conflicts per bounded-model-checking
	// SAT call.
	MaxSATConflicts int
	// MaxFormulaDepth caps the nesting depth accepted by the CTL/LTL
	// parsers (0 = the built-in default of 1000).
	MaxFormulaDepth int
}

func (l Limits) internal() guard.Limits {
	return guard.Limits{
		Timeout:         l.Timeout,
		MaxStates:       l.MaxStates,
		MaxBDDNodes:     l.MaxBDDNodes,
		MaxSATConflicts: l.MaxSATConflicts,
		MaxFormulaDepth: l.MaxFormulaDepth,
	}
}

// Result is a completed (possibly partial) analysis.
type Result struct {
	// Apps names the analyzed apps.
	Apps []string
	// States is the number of states of the (reduced) model; Before is
	// the would-be count without property abstraction.
	States                int
	StatesBeforeReduction int
	// Transitions is the number of labeled transitions.
	Transitions int
	// Violations lists every property violation found.
	Violations []Violation
	// Incomplete is true when part of the analysis was skipped — the
	// resource budget ran out, the context was canceled, or an internal
	// fault was contained. The populated fields are still valid; the
	// Diagnostics explain what was skipped and why.
	Incomplete bool
	// Diagnostics describe each contained failure.
	Diagnostics []Diagnostic
	// Checked lists the app-specific property IDs that were fully
	// decided, in catalogue order.
	Checked []string
	// TaintFlows lists every sensitive-data flow found (each also
	// surfaces as a TaintViolation in Violations), sorted.
	TaintFlows []TaintFlow

	analysis *core.Analysis
}

// TaintFlow is one sensitive-data flow: a source value reaching a
// transmission sink over a feasible path.
type TaintFlow struct {
	// ID is the violated catalogue property, "T.1".."T.6".
	ID  string
	App string
	// Handler and Event identify the subscription handler the flow
	// executes in and the event that triggers it.
	Handler string
	Event   string
	// Source is the sensitive value ("evt.displayName",
	// "location.mode", an input handle); SourceClass classifies it
	// ("device-state", "location-mode", "user-input").
	Source      string
	SourceClass string
	// Via names the persistent state field the value flowed through
	// ("state.lastSeen"); empty for direct flows.
	Via string
	// Sink and Channel identify the transmission; Line is the sink
	// call's source line.
	Sink    string
	Channel string
	Line    int
	// Condition is the path condition under which the sink is reached
	// ("true" when unconditional); it is satisfiable by construction.
	Condition string
	// Witness is the rendered source→sink path, one step per line.
	Witness []string
}

// Option configures an analysis.
type Option func(*core.Options)

// WithGeneralOnly restricts checking to the general properties
// S.1–S.5 (plus nondeterminism).
func WithGeneralOnly() Option {
	return func(o *core.Options) { o.AppSpecific = false; o.Taint = false }
}

// WithAppSpecificOnly restricts checking to the P.1–P.30 catalogue.
func WithAppSpecificOnly() Option {
	return func(o *core.Options) { o.General = false; o.Taint = false }
}

// WithTaintOnly restricts checking to the T.1–T.6 sensitive-data-flow
// family.
func WithTaintOnly() Option {
	return func(o *core.Options) { o.General = false; o.AppSpecific = false }
}

// WithChecks selects exactly which property families run: the general
// S.1–S.5 checks, the app-specific P.1–P.30 catalogue, and the
// T.1–T.6 taint family. It subsumes the *Only options for callers
// that need an arbitrary combination.
func WithChecks(general, appSpecific, taint bool) Option {
	return func(o *core.Options) {
		o.General, o.AppSpecific, o.Taint = general, appSpecific, taint
	}
}

// WithProperties restricts the app-specific and taint catalogues to
// the given IDs (e.g. "P.10", "T.2", or the "T.*" wildcard).
func WithProperties(ids ...string) Option {
	return func(o *core.Options) { o.PropertyIDs = ids }
}

// WithTimeout bounds the analysis wall clock. When the deadline
// passes, the run stops cooperatively and returns a partial Result
// with Incomplete set (it is not an error).
func WithTimeout(d time.Duration) Option {
	return func(o *core.Options) { o.Limits.Timeout = d }
}

// WithLimits bounds the analysis resources. Exhausting any limit
// degrades the run to a partial Result with Incomplete set and a
// Diagnostic naming the exhausted resource.
func WithLimits(l Limits) Option {
	return func(o *core.Options) { o.Limits = l.internal() }
}

// Analyze checks a single app against all properties. It never
// panics: internal faults and budget exhaustion come back as a
// partial Result with Incomplete set.
func Analyze(app *App, opts ...Option) (*Result, error) {
	return AnalyzeEnvironment([]*App{app}, opts...)
}

// AnalyzeContext is Analyze under a context: cancellation and context
// deadlines stop the run cooperatively, yielding a partial Result.
func AnalyzeContext(ctx context.Context, app *App, opts ...Option) (*Result, error) {
	return AnalyzeEnvironmentContext(ctx, []*App{app}, opts...)
}

// AnalyzeEnvironment checks a collection of apps working in concert:
// it runs joint state-model extraction over the apps' merged variables
// (rather than Algorithm 2's structural union of per-app models, which
// needs consistent abstract domains) and verifies the properties on
// the joint behaviour.
func AnalyzeEnvironment(apps []*App, opts ...Option) (*Result, error) {
	return AnalyzeEnvironmentContext(context.Background(), apps, opts...)
}

// AnalyzeEnvironmentContext is AnalyzeEnvironment under a context. It
// never panics; whatever fails inside the pipeline is contained and
// reported through Result.Incomplete and Result.Diagnostics.
func AnalyzeEnvironmentContext(ctx context.Context, apps []*App, opts ...Option) (res *Result, err error) {
	defer func() {
		// Last-resort boundary: a panic that escapes every inner
		// recovery boundary still becomes a structured partial result.
		var perr error
		guard.RecoverTo(&perr, "soteria")
		if perr != nil {
			res = &Result{Incomplete: true,
				Diagnostics: []Diagnostic{diagnosticOf(guard.Diagnose("soteria", "", "", perr))}}
			err = nil
			for _, a := range apps {
				res.Apps = append(res.Apps, a.Name)
			}
		}
	}()
	o := core.DefaultOptions()
	for _, fn := range opts {
		fn(&o)
	}
	irs := make([]*ir.App, len(apps))
	for i, a := range apps {
		irs[i] = a.ir
	}
	an, err := core.AnalyzeAppsContext(ctx, o, irs...)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(apps))
	for i, a := range apps {
		names[i] = a.Name
	}
	return resultFrom(an, names), nil
}

// resultFrom converts a pipeline analysis into a public Result.
func resultFrom(an *core.Analysis, appNames []string) *Result {
	res := &Result{
		Apps:       appNames,
		Incomplete: an.Incomplete,
		Checked:    append([]string{}, an.Checked...),
		analysis:   an,
	}
	if an.Model != nil {
		res.States = len(an.Model.States)
		res.StatesBeforeReduction = an.Model.StatesBeforeReduction
		res.Transitions = an.Model.NumTransitions()
	}
	for _, d := range an.Diagnostics {
		res.Diagnostics = append(res.Diagnostics, diagnosticOf(d))
	}
	for _, v := range an.Violations {
		res.Violations = append(res.Violations, Violation{
			ID:             v.ID,
			Kind:           kindOf(v.Kind),
			Description:    v.Description,
			Detail:         v.Detail,
			Apps:           v.Apps,
			Counterexample: v.Counterexample,
		})
	}
	for _, f := range an.TaintFlows {
		res.TaintFlows = append(res.TaintFlows, TaintFlow{
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
			Witness:     append([]string{}, f.Witness...),
		})
	}
	return res
}

// BatchItem is one unit of a batch analysis: a single app or a
// multi-app environment, identified by Key in the results.
type BatchItem struct {
	Key  string
	Apps []*App
}

// BatchResult pairs a batch item with its outcome. Exactly one of
// Result and Err is set: hard failures land in Err, while contained
// faults and exhausted budgets come back as a partial Result with
// Incomplete set — the same contract as Analyze, preserved per item.
type BatchResult struct {
	Key    string
	Result *Result
	Err    error
}

// AnalyzeBatch analyzes many apps or environments concurrently with a
// bounded worker pool (parallel caps in-flight analyses; values below
// 2 run sequentially, 0 uses GOMAXPROCS). Results come back in input
// order and are identical to running Analyze on each item in turn: a
// panic or exhausted budget in one item degrades only that item's
// result. Options apply to every item.
func AnalyzeBatch(ctx context.Context, parallel int, items []BatchItem, opts ...Option) []BatchResult {
	o := core.DefaultOptions()
	for _, fn := range opts {
		fn(&o)
	}
	coreItems := make([]core.BatchItem, len(items))
	for i, it := range items {
		irs := make([]*ir.App, len(it.Apps))
		for j, a := range it.Apps {
			irs[j] = a.ir
		}
		coreItems[i] = core.BatchItem{Key: it.Key, Apps: irs}
	}
	results := core.AnalyzeBatch(ctx, core.BatchOptions{Options: o, Parallel: parallel}, coreItems...)
	out := make([]BatchResult, len(results))
	for i, r := range results {
		out[i] = BatchResult{Key: r.Key, Err: r.Err}
		if r.Analysis != nil {
			names := make([]string, len(items[i].Apps))
			for j, a := range items[i].Apps {
				names[j] = a.Name
			}
			out[i].Result = resultFrom(r.Analysis, names)
		}
	}
	return out
}

func kindOf(k properties.Kind) ViolationKind {
	switch k {
	case properties.General:
		return GeneralViolation
	case properties.AppSpecific:
		return AppSpecificViolation
	case properties.Nondeterminism:
		return NondeterminismViolation
	case properties.Taint:
		return TaintViolation
	}
	return ViolationKind("unknown")
}

// errIncomplete reports a post-hoc query against a result with no
// model (analysis degraded before model construction finished).
func (r *Result) errIncomplete() error {
	return fmt.Errorf("soteria: analysis is incomplete, no model available")
}

// DOT renders the extracted state model as a Graphviz digraph (the
// paper's Fig. 9 visualisation). "" when the result has no model.
func (r *Result) DOT() string {
	if r.analysis == nil {
		return ""
	}
	return r.analysis.DOT()
}

// SMV renders the model in NuSMV input format with the applicable
// property formulas as SPEC lines. "" when the result has no model.
func (r *Result) SMV() string {
	if r.analysis == nil {
		return ""
	}
	return r.analysis.SMV()
}

// CheckFormula verifies a custom CTL property against the model.
// Atomic propositions are "capability.attribute=value" state facts
// (e.g. "valve.valve=closed") and "ev:<event>" markers for states
// entered via an event (e.g. "ev:waterSensor.water.wet"). It returns
// whether the property holds and, when it does not, a counterexample
// trace. Malformed formulas (syntax errors, excessive nesting) are
// reported as errors — CheckFormula never panics.
func (r *Result) CheckFormula(formula string) (holds bool, counterexample string, err error) {
	if r.analysis == nil {
		return false, "", r.errIncomplete()
	}
	return r.analysis.CheckFormula(formula)
}

// Engine selects the model-checking backend for CheckFormulaEngine.
type Engine = core.Engine

// Available engines: the explicit-state fixpoint checker (default,
// produces counterexamples), the BDD-based symbolic engine, and
// SAT-based bounded model checking — the reproduction's analogue of
// NuSMV's combined BDD/SAT configuration (paper §5).
const (
	Explicit = core.Explicit
	BDD      = core.BDD
	BMC      = core.BMC
)

// CheckFormulaEngine verifies a custom CTL property with a specific
// backend. The BMC engine handles only AG formulas with propositional
// bodies (it returns an error otherwise), and it returns an
// "undecided" error when it finds no counterexample within a bound
// short of the model's completeness threshold.
func (r *Result) CheckFormulaEngine(formula string, engine Engine) (holds bool, counterexample string, err error) {
	if r.analysis == nil {
		return false, "", r.errIncomplete()
	}
	return r.analysis.CheckFormulaEngine(formula, engine)
}

// CheckLTL verifies a linear temporal logic property over all paths of
// the model (syntax: G, F, X, U, R, !, &, |, ->; propositions as in
// CheckFormula). A failing property yields a lasso counterexample —
// a stem followed by an infinitely repeating loop. Malformed formulas
// are reported as errors — CheckLTL never panics.
func (r *Result) CheckLTL(formula string) (holds bool, counterexample string, err error) {
	if r.analysis == nil {
		return false, "", r.errIncomplete()
	}
	return r.analysis.CheckLTL(formula)
}

// WitnessFormula produces a trace demonstrating an existential CTL
// formula (EX/EF/EU/EG) — evidence for questions like "can the door
// ever be unlocked while nobody is home?". ok=false when the formula
// is unsatisfiable on the model or is not existential.
func (r *Result) WitnessFormula(formula string) (trace string, ok bool, err error) {
	if r.analysis == nil {
		return "", false, r.errIncomplete()
	}
	return r.analysis.WitnessFormula(formula)
}

// Violated reports whether the given property ID was violated.
func (r *Result) Violated(id string) bool {
	for _, v := range r.Violations {
		if v.ID == id {
			return true
		}
	}
	return false
}

// JSON renders the result as the schema-versioned canonical record —
// the same encoding soteriad stores and serves (deterministic: equal
// results encode to equal bytes; `"schema": 2`).
func (r *Result) JSON() ([]byte, error) {
	if r.analysis != nil {
		return report.Encode(report.FromAnalysis(r.analysis))
	}
	// A result without a pipeline analysis (last-resort recovery path)
	// still renders from its public fields.
	rec := &report.Record{
		Schema:      report.Schema,
		Apps:        append([]string{}, r.Apps...),
		Violations:  []report.Violation{},
		Checked:     append([]string{}, r.Checked...),
		Incomplete:  r.Incomplete,
		Diagnostics: []report.Diagnostic{},
	}
	for _, d := range r.Diagnostics {
		rec.Diagnostics = append(rec.Diagnostics, report.Diagnostic{
			Stage: d.Stage, Property: d.Property, Engine: d.Engine,
			Kind: string(d.Kind), Message: d.Message,
		})
	}
	return report.Encode(rec)
}

// Service is a running analysis service: the soteriad serving tier —
// HTTP JSON API, bounded job queue, persistent content-addressed
// result store — embeddable in any program. Mount Handler() on an
// http.Server and call Shutdown to drain.
type Service = service.Server

// ServiceConfig configures NewService. The zero value is serviceable:
// sensible defaults fill in workers, queue depth, timeouts, and size
// caps; an empty StoreDir disables result reuse on this node.
type ServiceConfig struct {
	// Workers is the number of concurrent analysis workers
	// (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds queued jobs; past it, submissions are rejected
	// with HTTP 429 and a Retry-After hint (0 = 64).
	QueueDepth int
	// JobTimeout is the per-job wall-clock ceiling; requests may ask
	// for less, never more (0 = 60s).
	JobTimeout time.Duration
	// MaxBodyBytes caps request bodies (0 = 8 MiB).
	MaxBodyBytes int64
	// Limits are per-job resource limits; the zero value is unlimited.
	Limits Limits
	// StoreDir roots the persistent result store, the service's only
	// result cache; "" analyzes every job afresh and reuses nothing.
	StoreDir string
	// JournalPath enables the durable job journal ("" disables): every
	// accepted job is fsynced into it before its acknowledgment, and on
	// restart incomplete jobs re-enqueue under their original IDs while
	// idempotency keys dedupe resubmissions.
	JournalPath string
	// ChaosFS slows and fragments store and journal writes (small
	// chunks, delays) to widen crash windows. For kill-restart testing
	// only — never in production.
	ChaosFS bool
	// Logger receives structured service logs; nil discards them. Every
	// line about a job carries its trace ID.
	Logger *slog.Logger
	// SlowJobThreshold, when positive, logs the full span tree of any
	// job whose wall time meets or exceeds it (0 disables).
	SlowJobThreshold time.Duration

	// Peers, when set, joins this node to a fleet: the full static
	// member list (this node's advertised URL included). Each analysis
	// key is owned by one member of a consistent-hash ring; sync
	// requests route to their owner and federate back. Stores stay
	// local: a record lives on the node that analyzed it. Every node
	// must be started with the same list (order is irrelevant).
	Peers []string
	// SelfURL is this node's advertised base URL (required with Peers;
	// must appear in the list).
	SelfURL string
	// VirtualNodes is the ring's per-member point count (0 = 128).
	VirtualNodes int
}

// NewService starts an analysis service (its worker pool is live on
// return). Every analysis runs inside the resilience layer: resource
// budgets, cooperative cancellation, and panic isolation per job.
func NewService(cfg ServiceConfig) (*Service, error) {
	var fs fsio.FS
	if cfg.ChaosFS {
		fs = fsio.Chaos{Inner: fsio.OS{}}
	}
	var st *store.Store
	if cfg.StoreDir != "" {
		var err error
		st, err = store.Open(cfg.StoreDir, store.Options{FS: fs})
		if err != nil {
			return nil, err
		}
	}
	var cl *cluster.Cluster
	if len(cfg.Peers) > 0 {
		var err error
		cl, err = cluster.New(cluster.Config{
			Self:         cfg.SelfURL,
			Peers:        cfg.Peers,
			VirtualNodes: cfg.VirtualNodes,
		})
		if err != nil {
			return nil, err
		}
	}
	return service.New(service.Config{
		Workers:          cfg.Workers,
		QueueDepth:       cfg.QueueDepth,
		JobTimeout:       cfg.JobTimeout,
		MaxBodyBytes:     cfg.MaxBodyBytes,
		Limits:           cfg.Limits.internal(),
		Store:            st,
		Cluster:          cl,
		JournalPath:      cfg.JournalPath,
		FS:               fs,
		Logger:           cfg.Logger,
		SlowJobThreshold: cfg.SlowJobThreshold,
	})
}

// PropertyIDs returns the full app-specific and taint catalogue IDs
// with descriptions, for discovery and documentation tooling.
func PropertyIDs() map[string]string {
	out := map[string]string{}
	for _, p := range properties.Catalogue() {
		out[p.ID] = p.Description
	}
	for _, s := range taint.Catalogue() {
		out[s.ID] = s.Description
	}
	return out
}
