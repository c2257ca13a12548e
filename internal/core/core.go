// Package core is the Soteria analyzer pipeline (paper Fig. 3/10):
// source → IR → state model → Kripke structure → property checking.
// It ties the substrates together for single apps and multi-app
// environments.
package core

import (
	"context"
	"fmt"
	"sort"

	"github.com/soteria-analysis/soteria/internal/bmc"
	"github.com/soteria-analysis/soteria/internal/ctl"
	"github.com/soteria-analysis/soteria/internal/guard"
	"github.com/soteria-analysis/soteria/internal/guard/faultinject"
	"github.com/soteria-analysis/soteria/internal/ir"
	"github.com/soteria-analysis/soteria/internal/kripke"
	"github.com/soteria-analysis/soteria/internal/ltl"
	"github.com/soteria-analysis/soteria/internal/modelcheck"
	"github.com/soteria-analysis/soteria/internal/obs"
	"github.com/soteria-analysis/soteria/internal/properties"
	"github.com/soteria-analysis/soteria/internal/smv"
	"github.com/soteria-analysis/soteria/internal/statemodel"
	"github.com/soteria-analysis/soteria/internal/symbolic"
	"github.com/soteria-analysis/soteria/internal/taint"
)

// Options selects which property families to verify.
type Options struct {
	// General enables the S.1–S.5 checks and nondeterminism detection.
	General bool
	// AppSpecific enables the P.1–P.30 catalogue.
	AppSpecific bool
	// Taint enables the T.1–T.6 sensitive-data-flow checks
	// (internal/taint): sources (device state, location mode, user
	// input) flowing to sinks (network calls, messages).
	Taint bool
	// PropertyIDs restricts the app-specific catalogue to the listed
	// IDs (empty = all). The filter is applied before dispatch: only
	// the requested properties are built and checked, and Checked
	// reflects the filter. Taint IDs (T.n, or the "T.*" wildcard)
	// restrict the taint family the same way.
	PropertyIDs []string
	// Limits bounds the run's resources; the zero value is unlimited.
	Limits guard.Limits
}

// DefaultOptions checks everything.
func DefaultOptions() Options {
	return Options{General: true, AppSpecific: true, Taint: true}
}

// Analysis is the result of analyzing one app or an environment.
type Analysis struct {
	Apps       []*ir.App
	Model      *statemodel.Model
	Kripke     *kripke.Structure
	Violations []properties.Violation
	// Incomplete is true when part of the analysis was skipped —
	// resource budget exhausted, cancellation, or a contained internal
	// fault. The populated fields are still valid.
	Incomplete bool
	// Diagnostics describe each contained failure.
	Diagnostics []guard.Diagnostic
	// Checked lists the app-specific property IDs that were fully
	// decided, in catalogue order.
	Checked []string
	// TaintFlows are the sensitive-data-flow findings (T.1–T.6),
	// sorted and deduplicated; each also appears as a Violation.
	TaintFlows []taint.Flow
	// lim reproduces per-resource limits for post-hoc formula checks.
	lim guard.Limits
}

// markIncomplete records a contained failure.
func (a *Analysis) markIncomplete(d guard.Diagnostic) {
	a.Incomplete = true
	a.Diagnostics = append(a.Diagnostics, d)
}

// recoverable reports whether a stage error should degrade to a
// partial result (budget exhaustion, cancellation, contained panic)
// rather than abort the analysis.
func recoverable(err error) bool {
	return guard.IsBudget(err) || guard.IsPanic(err)
}

// NamedSource pairs an app name with its Groovy source.
type NamedSource struct {
	Name   string
	Source string
}

// AnalyzeSources parses, models, and checks a set of apps as one
// environment (a single app is the one-element case).
func AnalyzeSources(opts Options, sources ...NamedSource) (*Analysis, error) {
	return AnalyzeSourcesContext(context.Background(), opts, sources...)
}

// AnalyzeSourcesContext is AnalyzeSources under a context: the run is
// aborted cooperatively when ctx is canceled or its deadline passes,
// yielding a partial result with Incomplete set.
func AnalyzeSourcesContext(ctx context.Context, opts Options, sources ...NamedSource) (*Analysis, error) {
	var apps []*ir.App
	irsp := obs.Start(ctx, "ir")
	for _, s := range sources {
		app, err := ir.BuildSource(s.Name, s.Source)
		if err != nil {
			irsp.End()
			return nil, fmt.Errorf("parsing %s: %w", s.Name, err)
		}
		apps = append(apps, app)
	}
	irsp.SetInt("apps", int64(len(apps)))
	irsp.End()
	return AnalyzeAppsContext(ctx, opts, apps...)
}

// AnalyzeApps models and checks already-extracted apps.
func AnalyzeApps(opts Options, apps ...*ir.App) (*Analysis, error) {
	return AnalyzeAppsContext(context.Background(), opts, apps...)
}

// AnalyzeAppsContext is AnalyzeApps under a context and the resource
// limits of opts. Each pipeline stage runs inside a recovery boundary:
// budget exhaustion, cancellation, and internal panics degrade to a
// partial Analysis with Incomplete set and a Diagnostic per contained
// failure — err is reserved for hard input errors (unparseable apps,
// infeasible models).
func AnalyzeAppsContext(ctx context.Context, opts Options, apps ...*ir.App) (*Analysis, error) {
	if len(apps) == 0 {
		return nil, fmt.Errorf("core: no apps to analyze")
	}
	a := &Analysis{Apps: apps, lim: opts.Limits}
	b := guard.New(ctx, opts.Limits)

	err := guard.Run("core.analyze", func() error {
		faultinject.Hit(faultinject.SiteAnalyze)

		msp := obs.Start(ctx, "statemodel")
		merr := guard.Run("statemodel", func() error {
			faultinject.Hit(faultinject.SiteStateModel)
			m, err := statemodel.BuildBudget(b, statemodel.Options{}, apps...)
			if err != nil {
				return fmt.Errorf("state model: %w", err)
			}
			a.Model = m
			return nil
		})
		if a.Model != nil {
			msp.SetInt("states", int64(len(a.Model.States)))
		}
		msp.End()
		if merr == nil && a.Model != nil {
			ksp := obs.Start(ctx, "kripke")
			merr = guard.Run("kripke", func() error {
				faultinject.Hit(faultinject.SiteKripke)
				a.Kripke = kripke.FromModel(a.Model)
				return nil
			})
			ksp.End()
		}
		if merr != nil {
			if recoverable(merr) {
				a.markIncomplete(guard.Diagnose("statemodel", "", "", merr))
				return nil
			}
			return merr
		}

		if opts.General {
			gsp := obs.Start(ctx, "check.general")
			gerr := guard.Run("properties.general", func() error {
				faultinject.Hit(faultinject.SiteGeneral)
				a.Violations = append(a.Violations, properties.CheckGeneralBudget(a.Model, b)...)
				return nil
			})
			gsp.End()
			if gerr != nil {
				if !recoverable(gerr) {
					return gerr
				}
				a.markIncomplete(guard.Diagnose("properties.general", "", "", gerr))
			}
		}
		if opts.AppSpecific {
			// The property filter is applied before dispatch: only the
			// requested properties are built and checked, and Checked
			// reflects the filter. One subformula memo spans the whole
			// sweep: the catalogue's formulas share subterms, and the
			// memo lets the explicit engine compute each distinct
			// subformula once per analysis.
			memo := modelcheck.NewMemo()
			csp := obs.Start(ctx, "check")
			rep := properties.CheckAppSpecificOpts(a.Model, func(propID string, f ctl.Formula) properties.PropertyOutcome {
				return checkProperty(a.Kripke, b, propID, f, memo, csp)
			}, properties.SweepOptions{IDs: opts.PropertyIDs})
			ms := memo.Stats()
			csp.SetInt("memo_lookups", int64(ms.Lookups))
			csp.SetInt("memo_hits", int64(ms.Hits))
			csp.SetInt("memo_subformulas", int64(ms.Entries))
			csp.End()
			a.Checked = rep.Checked
			a.Diagnostics = append(a.Diagnostics, rep.Diagnostics...)
			if rep.Incomplete {
				a.Incomplete = true
			}
			a.Violations = append(a.Violations, rep.Violations...)
		}
		if opts.Taint && a.Model != nil {
			// The taint family is evaluated over the symbolic-execution
			// results the model already retains — no re-execution. It
			// sorts its flows, so every run reports identical bytes.
			tsp := obs.Start(ctx, "check.taint")
			terr := guard.Run("properties.taint", func() error {
				faultinject.Hit(faultinject.SiteTaint)
				a.TaintFlows = taint.FromModel(a.Model, opts.PropertyIDs)
				a.Violations = append(a.Violations, taint.Violations(a.TaintFlows)...)
				return nil
			})
			tsp.SetInt("flows", int64(len(a.TaintFlows)))
			tsp.End()
			if terr != nil {
				if !recoverable(terr) {
					return terr
				}
				a.markIncomplete(guard.Diagnose("properties.taint", "", "", terr))
			}
		}
		return nil
	})
	// Reports are ordered by catalogue position (S.1–S.5, P.1–P.30,
	// then ND) rather than discovery order, so equal inputs render
	// byte-identical output however the checks were scheduled.
	properties.SortViolations(a.Violations)
	if err != nil {
		if recoverable(err) {
			a.markIncomplete(guard.Diagnose("core.analyze", "", "", err))
			return a, nil
		}
		return nil, err
	}
	return a, nil
}

// Engine selects a model-checking backend.
type Engine string

// Available engines.
const (
	// Explicit is the explicit-state fixpoint checker (default; the
	// only engine producing counterexamples).
	Explicit Engine = "explicit"
	// BDD is the symbolic engine over binary decision diagrams.
	BDD Engine = "bdd"
	// BMC is SAT-based bounded model checking; it handles AG formulas
	// with propositional bodies and reports a counterexample path when
	// one exists within the bound. Finding none is a proof only when
	// the bound reaches the model's completeness threshold.
	BMC Engine = "bmc"
)

// checkProperty decides one catalogue formula with the explicit
// engine inside a recovery boundary. memo, when non-nil, shares
// subformula results across the sweep's properties. A failure
// (budget exhaustion, cancellation, contained panic) leaves the
// property undecided: Err is set and the failure is recorded as an
// "engine.explicit" Diagnostic. The decision is traced as a
// "property" child span of parent carrying the engine, the verdict,
// and any error.
func checkProperty(k *kripke.Structure, b *guard.Budget, propID string, f ctl.Formula, memo *modelcheck.Memo, parent *obs.Span) (out properties.PropertyOutcome) {
	psp := parent.StartChild("property")
	psp.Set("id", propID)
	defer func() {
		switch {
		case out.Err != nil:
			psp.Set("verdict", "undecided")
			psp.Set("error", out.Err.Error())
		case out.Holds:
			psp.Set("verdict", "holds")
		default:
			psp.Set("verdict", "violated")
		}
		if out.Engine != "" {
			psp.Set("engine", out.Engine)
		}
		psp.End()
	}()
	// Per-property boundary: an exhausted budget (checked promptly, not
	// amortized) or an injected per-property fault undecides only this
	// property.
	if err := guard.Run("property", func() error {
		faultinject.HitKey(faultinject.SiteProperty, propID)
		b.Check("property")
		return nil
	}); err != nil {
		return properties.PropertyOutcome{
			Diagnostics: []guard.Diagnostic{guard.Diagnose("property", propID, "", err)},
			Err:         err,
		}
	}
	out.Engine = string(Explicit)
	stage := "engine." + out.Engine
	if err := guard.Run(stage, func() error {
		faultinject.HitKey(faultinject.SiteEngineExplicit, propID)
		r := modelcheck.CheckMemoBudget(k, f, b, memo)
		out.Holds = r.Holds
		out.FailingStates = len(r.FailingStates)
		if !r.Holds && len(r.Counterexample) > 0 {
			out.Counterexample = k.RenderPath(r.Counterexample)
		}
		return nil
	}); err != nil {
		out.Diagnostics = []guard.Diagnostic{guard.Diagnose(stage, propID, out.Engine, err)}
		out.Err = err
	}
	return out
}

// CheckFormula verifies a custom CTL formula against the analysis
// model with the explicit-state engine; it returns whether the
// property holds and a rendered counterexample when it does not.
func (a *Analysis) CheckFormula(formula string) (bool, string, error) {
	return a.CheckFormulaEngine(formula, Explicit)
}

// errNoModel reports a post-hoc check against an incomplete analysis.
func (a *Analysis) errNoModel() error {
	return fmt.Errorf("core: analysis is incomplete, no model to check against")
}

// budget creates a fresh budget for a post-hoc formula check,
// reapplying the per-resource limits (not the wall clock) the analysis
// ran under.
func (a *Analysis) budget() *guard.Budget {
	return guard.New(context.Background(), a.lim)
}

// CheckFormulaEngine is CheckFormula with an explicit backend choice
// (the paper's NuSMV combined BDD- and SAT-based engines; §5). It
// never panics: malformed formulas, engine faults and undecided BMC
// searches come back as errors.
func (a *Analysis) CheckFormulaEngine(formula string, engine Engine) (holds bool, cex string, err error) {
	defer guard.RecoverTo(&err, "checkformula")
	if a.Kripke == nil {
		return false, "", a.errNoModel()
	}
	faultinject.Hit(faultinject.SiteCTLParse)
	f, err := ctl.ParseDepth(formula, a.lim.MaxFormulaDepth)
	if err != nil {
		return false, "", err
	}
	switch engine {
	case Explicit, "":
		r := modelcheck.CheckBudget(a.Kripke, f, a.budget())
		if r.Holds {
			return true, "", nil
		}
		cex := ""
		if len(r.Counterexample) > 0 {
			cex = a.Kripke.RenderPath(r.Counterexample)
		}
		return false, cex, nil
	case BDD:
		r := symbolic.NewBudget(a.Kripke, a.budget()).Check(f)
		return r.Holds, "", nil
	case BMC:
		bound := min(a.Kripke.N, 64)
		r, handled := bmc.CheckAGBudget(a.Kripke, f, bound, a.budget())
		if !handled {
			return false, "", fmt.Errorf("core: BMC handles only AG formulas with propositional bodies")
		}
		if r.Violated {
			return false, a.Kripke.RenderPath(r.Path), nil
		}
		// A search that found nothing is a proof only when the bound
		// reaches the completeness threshold; below it the property is
		// undecided, never "holds".
		if ct := bmc.CompletenessThreshold(a.Kripke); bound < ct {
			return false, "", fmt.Errorf("core: BMC undecided: no counterexample within bound %d, below the completeness threshold %d", bound, ct)
		}
		return true, "", nil
	}
	return false, "", fmt.Errorf("core: unknown engine %q", engine)
}

// CheckLTL verifies an LTL property (interpreted over all paths from
// all initial states — the second temporal logic the paper names in
// §2). When the property fails, the counterexample is a rendered
// lasso: a finite stem followed by a loop. It never panics.
func (a *Analysis) CheckLTL(formula string) (holds bool, cex string, err error) {
	defer guard.RecoverTo(&err, "checkltl")
	if a.Kripke == nil {
		return false, "", a.errNoModel()
	}
	faultinject.Hit(faultinject.SiteLTLParse)
	f, err := ltl.ParseDepth(formula, a.lim.MaxFormulaDepth)
	if err != nil {
		return false, "", err
	}
	faultinject.Hit(faultinject.SiteEngineLTL)
	r := ltl.CheckBudget(a.Kripke, f, a.budget())
	if r.Holds {
		return true, "", nil
	}
	cex = a.Kripke.RenderPath(r.Counterexample)
	if r.Loop >= 0 && r.Loop < len(r.Counterexample) {
		cex += fmt.Sprintf("\n  --(loops back to step %d)--> %s",
			r.Loop, a.Kripke.Name(r.Counterexample[r.Loop]))
	}
	return false, cex, nil
}

// WitnessFormula produces a rendered trace demonstrating an
// existential CTL formula (EX/EF/EU/EG) from some state of the model —
// evidence for "can the environment ever reach ...?" questions.
// ok=false when the formula is unsatisfiable or not existential. It
// never panics.
func (a *Analysis) WitnessFormula(formula string) (trace string, ok bool, err error) {
	defer guard.RecoverTo(&err, "witness")
	if a.Kripke == nil {
		return "", false, a.errNoModel()
	}
	faultinject.Hit(faultinject.SiteCTLParse)
	f, err := ctl.ParseDepth(formula, a.lim.MaxFormulaDepth)
	if err != nil {
		return "", false, err
	}
	for _, s := range a.Kripke.Init {
		if path, _, found := modelcheck.Witness(a.Kripke, f, s); found {
			return a.Kripke.RenderPath(path), true, nil
		}
	}
	return "", false, nil
}

// DOT renders the state model in Graphviz format ("" when the
// analysis has no model).
func (a *Analysis) DOT() string {
	if a.Model == nil {
		return ""
	}
	return a.Model.Dot()
}

// SMV renders the state model in NuSMV input format, with the full
// catalogue's applicable formulas as SPECs ("" when the analysis has
// no model).
func (a *Analysis) SMV() string {
	if a.Model == nil {
		return ""
	}
	var specs []ctl.Formula
	for _, pf := range properties.Formulas(a.Model, nil) {
		specs = append(specs, pf.Formula)
	}
	return smv.Emit(a.Model, specs)
}

// ViolatedIDs returns the distinct violated property IDs in catalogue
// order (S.1–S.5, P.1–P.30, then ND) — deterministic regardless of
// the order violations were recorded in.
func (a *Analysis) ViolatedIDs() []string {
	seen := map[string]bool{}
	var out []string
	for _, v := range a.Violations {
		if !seen[v.ID] {
			seen[v.ID] = true
			out = append(out, v.ID)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ri, rj := properties.IDRank(out[i]), properties.IDRank(out[j])
		if ri != rj {
			return ri < rj
		}
		return out[i] < out[j]
	})
	return out
}
