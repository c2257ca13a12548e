// Package properties implements Soteria's property system (paper §4.3,
// Appendix B): the five general properties S.1–S.5 — structural
// constraints on states and transitions that must hold regardless of
// app semantics — and the thirty application-specific properties
// P.1–P.30, expressed as CTL templates instantiated on an app's (or
// app group's) state model. An app is checked against an app-specific
// property only when it grants all the devices the property names.
package properties

import (
	"fmt"
	"sort"
	"strings"

	"github.com/soteria-analysis/soteria/internal/capability"
	"github.com/soteria-analysis/soteria/internal/groovy"
	"github.com/soteria-analysis/soteria/internal/guard"
	"github.com/soteria-analysis/soteria/internal/ir"
	"github.com/soteria-analysis/soteria/internal/pathcond"
	"github.com/soteria-analysis/soteria/internal/statemodel"
)

// Kind classifies a violation's origin.
type Kind int

// Violation kinds.
const (
	// General marks S.1–S.5 violations.
	General Kind = iota
	// AppSpecific marks P.1–P.30 violations.
	AppSpecific
	// Nondeterminism marks nondeterministic state models (§4.2).
	Nondeterminism
	// Taint marks T.1–T.6 sensitive-data-flow violations (the
	// SainT-style source→sink family; internal/taint).
	Taint
)

func (k Kind) String() string {
	switch k {
	case General:
		return "general"
	case AppSpecific:
		return "app-specific"
	case Nondeterminism:
		return "nondeterminism"
	case Taint:
		return "taint"
	}
	return "unknown"
}

// Violation is one reported property violation.
type Violation struct {
	ID          string // "S.1", "P.30", "ND"
	Kind        Kind
	Description string
	// Detail explains the specific instance (devices, events, apps).
	Detail string
	// Apps names the contributing apps.
	Apps []string
	// Counterexample, when non-empty, is a rendered model trace.
	Counterexample string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s [%s]: %s — %s (apps: %s)",
		v.ID, v.Kind, v.Description, v.Detail, strings.Join(v.Apps, ", "))
}

// generalDescriptions are the Appendix B Table 1 texts (abridged).
var generalDescriptions = map[string]string{
	"S.1": "an event handler must not change a device attribute to conflicting values on the same control-flow path",
	"S.2": "an event handler must not change a device attribute to the same value multiple times",
	"S.3": "handlers of complement events must not change a device attribute to the same value",
	"S.4": "non-complement event handlers must not change an attribute to conflicting values (race condition)",
	"S.5": "an event handled by a handler's logic must be subscribed by the app",
}

// write is one attribute assignment of a path, in canonical
// capability.attribute form.
type write struct {
	key   string
	value string
}

// pathInfo is the per-path digest the general checks operate on.
type pathInfo struct {
	app     int
	appName string
	handler string
	kind    ir.EventKind
	trigKey string   // triggering variable key; "app.touch"/"timer.time" for abstract
	values  []string // possible event values; nil means "any value"
	writes  []write
	guard   pathcond.Cond
}

// eventOverlap reports whether two paths can be triggered by the same
// event occurrence.
func eventOverlap(a, b *pathInfo) bool {
	if a.trigKey != b.trigKey || a.kind != b.kind {
		return false
	}
	if a.values == nil || b.values == nil {
		return true
	}
	for _, x := range a.values {
		for _, y := range b.values {
			if x == y {
				return true
			}
		}
	}
	return false
}

// digestPaths flattens a model's per-app symbolic paths.
func digestPaths(m *statemodel.Model) []*pathInfo {
	var out []*pathInfo
	for ai, am := range m.Apps {
		for _, r := range am.Results {
			sub := r.Entry.Sub
			trig, values := triggerOf(m, am.App, sub)
			for _, p := range r.Paths {
				pi := &pathInfo{
					app: ai, appName: am.App.Name, handler: sub.Handler,
					kind: sub.Kind, trigKey: trig, guard: p.Guard,
				}
				pi.values = refineValues(values, p.Guard)
				for _, a := range p.Actions {
					pi.writes = append(pi.writes, write{key: a.Cap + "." + a.Attr, value: a.Value})
				}
				out = append(out, pi)
			}
		}
	}
	return out
}

func triggerOf(m *statemodel.Model, app *ir.App, sub ir.Subscription) (string, []string) {
	switch sub.Kind {
	case ir.AppTouchEvent:
		// Per-app: one app's icon tap does not trigger another app.
		return "app.touch", []string{app.Name}
	case ir.TimerEvent:
		// Per-schedule: distinct scheduled handlers are distinct
		// events and never race with each other.
		if sub.Value != "" {
			return "timer.time", []string{sub.Value}
		}
		return "timer.time", []string{"fired"}
	case ir.ModeEvent:
		if sub.Value != "" {
			return "location.mode", []string{sub.Value}
		}
		return "location.mode", nil
	}
	p, ok := app.PermissionByHandle(sub.Handle)
	if !ok || p.Cap == nil {
		return "", nil
	}
	attr := sub.Attr
	if _, has := p.Cap.Attribute(attr); !has {
		if pa := p.Cap.PrimaryAttribute(); pa != nil {
			attr = pa.Name
		}
	}
	key := p.Cap.Name + "." + attr
	if sub.Value != "" {
		return key, []string{sub.Value}
	}
	return key, nil
}

// refineValues narrows the event-value set using evt.value equality
// atoms in the path guard.
func refineValues(values []string, g pathcond.Cond) []string {
	var eq []string
	for _, a := range g.Atoms {
		if a.Var == "evt.value" && a.Op == pathcond.EQ && !a.IsNum && !a.IsSym() {
			eq = append(eq, a.Str)
		}
	}
	if len(eq) == 0 {
		return values
	}
	if values == nil {
		return eq
	}
	var out []string
	for _, v := range values {
		for _, e := range eq {
			if v == e {
				out = append(out, v)
			}
		}
	}
	if out == nil {
		return eq // contradictory subscription/guard; keep guard's view
	}
	return out
}

// CheckGeneral runs S.1–S.5 and the nondeterminism check on a model.
func CheckGeneral(m *statemodel.Model) []Violation {
	return CheckGeneralBudget(m, nil)
}

// CheckGeneralBudget is CheckGeneral under a resource budget: the
// pairwise path comparison (the quadratic part of the general checks)
// cooperatively checks the wall-clock deadline. A nil budget disables
// all checks.
func CheckGeneralBudget(m *statemodel.Model, bud *guard.Budget) []Violation {
	paths := digestPaths(m)
	var out []Violation
	seen := map[string]bool{}
	report := func(id, detail string, apps ...string) {
		sort.Strings(apps)
		key := id + "|" + detail
		if seen[key] {
			return
		}
		seen[key] = true
		out = append(out, Violation{
			ID: id, Kind: General, Description: generalDescriptions[id],
			Detail: detail, Apps: dedup(apps),
		})
	}

	// S.1 (same path) and S.2 (same path).
	for _, p := range paths {
		byKey := map[string][]string{}
		for _, w := range p.writes {
			byKey[w.key] = append(byKey[w.key], w.value)
		}
		for _, key := range sortedMapKeys(byKey) {
			vals := byKey[key]
			valSet := map[string]int{}
			for _, v := range vals {
				valSet[v]++
			}
			if len(valSet) > 1 {
				report("S.1", fmt.Sprintf("%s set to %s on one path of %s", key, strings.Join(vals, " then "), p.handler), p.appName)
			}
			for v, n := range valSet {
				if n > 1 {
					report("S.2", fmt.Sprintf("%s set to %s %d times on one path of %s", key, v, n, p.handler), p.appName)
				}
			}
		}
	}

	// Pairwise checks: S.1 (same event, conflicting writes across
	// handlers/apps), S.2 (same event, same write repeated across
	// handlers), S.3 (complement events, same write), S.4
	// (non-complement events, conflicting writes).
	for i := 0; i < len(paths); i++ {
		for j := i + 1; j < len(paths); j++ {
			bud.Tick("properties.general")
			a, b := paths[i], paths[j]
			samePath := a.app == b.app && a.handler == b.handler
			jointly := pathcond.Feasible(a.guard.And(b.guard))
			for _, wa := range a.writes {
				for _, wb := range b.writes {
					if wa.key != wb.key {
						continue
					}
					switch {
					case eventOverlap(a, b) && !samePath:
						if !jointly {
							continue
						}
						if wa.value != wb.value {
							report("S.1",
								fmt.Sprintf("event %s makes %s set %s to %s while %s sets it to %s",
									eventDesc(a), handlerDesc(a), wa.key, wa.value, handlerDesc(b), wb.value),
								a.appName, b.appName)
						} else {
							report("S.2",
								fmt.Sprintf("event %s makes both %s and %s set %s to %s",
									eventDesc(a), handlerDesc(a), handlerDesc(b), wa.key, wa.value),
								a.appName, b.appName)
						}
					case complementEvents(a, b):
						if wa.value == wb.value {
							report("S.3",
								fmt.Sprintf("complement events %s and %s both set %s to %s",
									eventDesc(a), eventDesc(b), wa.key, wa.value),
								a.appName, b.appName)
						}
					case a.trigKey != b.trigKey && a.trigKey != "" && b.trigKey != "":
						if wa.value != wb.value {
							report("S.4",
								fmt.Sprintf("independent events %s and %s race on %s (%s vs %s)",
									eventDesc(a), eventDesc(b), wa.key, wa.value, wb.value),
								a.appName, b.appName)
						}
					}
				}
			}
		}
	}

	// S.5: the handler's logic has a case for an event value the app
	// never subscribes to. This inspects the handler source directly —
	// the unsubscribed branch is infeasible under the seeded
	// subscription constraint and thus absent from the path digests.
	for _, am := range m.Apps {
		subsByHandler := map[string][]ir.Subscription{}
		for _, s := range am.App.Subscriptions {
			subsByHandler[s.Handler] = append(subsByHandler[s.Handler], s)
		}
		checked := map[string]bool{}
		for _, r := range am.Results {
			h := r.Entry.Sub.Handler
			if checked[h] {
				continue
			}
			checked[h] = true
			subs := subsByHandler[h]
			allValues := false
			valueSet := map[string]bool{}
			for _, s := range subs {
				if s.Value == "" {
					allValues = true
				}
				valueSet[s.Value] = true
			}
			if allValues {
				continue
			}
			for _, v := range handledEventValues(r.Entry.Handler) {
				if !valueSet[v] {
					report("S.5",
						fmt.Sprintf("handler %s handles event value %q but the app does not subscribe to it", h, v),
						am.App.Name)
				}
			}
		}
	}

	// Nondeterminism reports.
	for _, nd := range m.Nondet {
		apps := []string{m.Apps[nd.AppA].App.Name}
		if nd.AppB != nd.AppA {
			apps = append(apps, m.Apps[nd.AppB].App.Name)
		}
		detail := fmt.Sprintf("state %s on event %s reaches both %s and %s",
			m.StateLabel(nd.State), nd.Event.String(), m.StateLabel(nd.ToA), m.StateLabel(nd.ToB))
		key := "ND|" + detail
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, Violation{
			ID: "ND", Kind: Nondeterminism,
			Description: "nondeterministic state model",
			Detail:      detail, Apps: dedup(apps),
		})
	}
	return out
}

func eventDesc(p *pathInfo) string {
	if p.values == nil {
		return p.trigKey
	}
	return p.trigKey + "." + strings.Join(p.values, "/")
}

func handlerDesc(p *pathInfo) string {
	return p.appName + ":" + p.handler
}

// complementEvents reports whether two paths are triggered by
// complementary values of the same attribute (motion active/inactive,
// contact open/closed, ...).
func complementEvents(a, b *pathInfo) bool {
	if a.trigKey != b.trigKey || a.trigKey == "" {
		return false
	}
	if len(a.values) != 1 || len(b.values) != 1 {
		return false
	}
	i := strings.LastIndex(a.trigKey, ".")
	capName, attrName := a.trigKey[:i], a.trigKey[i+1:]
	c, ok := capability.Lookup(capName)
	if !ok {
		return false
	}
	attr, ok := c.Attribute(attrName)
	if !ok {
		return false
	}
	comp, ok := attr.Complement(a.values[0])
	return ok && comp == b.values[0]
}

// handledEventValues scans a handler body for comparisons of the event
// parameter's value against string literals (evt.value == "active",
// switch cases) and returns the distinct values.
func handledEventValues(h *groovy.MethodDecl) []string {
	if h == nil || len(h.Params) == 0 {
		return nil
	}
	evtParam := h.Params[0]
	isEvtValue := func(e groovy.Expr) bool {
		pe, ok := e.(*groovy.PropExpr)
		if !ok || pe.Name != "value" {
			return false
		}
		id, ok := pe.Recv.(*groovy.Ident)
		return ok && id.Name == evtParam
	}
	set := map[string]bool{}
	var order []string
	add := func(v string) {
		if !set[v] {
			set[v] = true
			order = append(order, v)
		}
	}
	groovy.Walk(h, func(n groovy.Node) bool {
		switch x := n.(type) {
		case *groovy.BinaryExpr:
			if x.Op != groovy.EQ {
				return true
			}
			if isEvtValue(x.L) {
				if s, ok := groovy.StringValue(x.R); ok {
					add(s)
				}
			} else if isEvtValue(x.R) {
				if s, ok := groovy.StringValue(x.L); ok {
					add(s)
				}
			}
		case *groovy.SwitchStmt:
			if isEvtValue(x.Tag) {
				for _, c := range x.Cases {
					if c.Value != nil {
						if s, ok := groovy.StringValue(c.Value); ok {
							add(s)
						}
					}
				}
			}
		}
		return true
	})
	return order
}

func dedup(ss []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range ss {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

func sortedMapKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
