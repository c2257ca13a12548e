// Package faultinject is the fault-injection harness of the
// resilience layer. Stage boundaries throughout the pipeline call
// Hit (or HitKey, for per-property sites); in production every call
// is a single disarmed atomic load. Tests arm sites with ArmPanic or
// ArmBudget to force a panic — or a simulated budget exhaustion — at
// that exact boundary and assert that the public API still returns a
// structured partial result: a faulted stage is skipped, and a faulted
// property is left undecided while the others keep their verdicts.
package faultinject

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/soteria-analysis/soteria/internal/guard"
)

// Canonical injection sites, one per pipeline stage boundary.
const (
	// SiteAnalyze is the top-level public API boundary.
	SiteAnalyze = "core.analyze"
	// SiteStateModel is state-model construction.
	SiteStateModel = "statemodel.build"
	// SiteKripke is Kripke-structure translation.
	SiteKripke = "kripke.from"
	// SiteGeneral is the S.1–S.5 / nondeterminism check stage.
	SiteGeneral = "properties.general"
	// SiteTaint is the T.1–T.6 sensitive-data-flow check stage.
	SiteTaint = "properties.taint"
	// SiteProperty is the per-property check boundary; HitKey passes
	// the property ID.
	SiteProperty = "properties.property"
	// SiteEngineExplicit is the explicit CTL engine boundary of the
	// property checker; HitKey passes the property ID.
	SiteEngineExplicit = "engine.explicit"
	// SiteEngineLTL is the LTL checker boundary.
	SiteEngineLTL = "engine.ltl"
	// SiteCTLParse and SiteLTLParse are the formula parser boundaries.
	SiteCTLParse = "ctl.parse"
	SiteLTLParse = "ltl.parse"
	// SiteSATSolve is the SAT solver entry.
	SiteSATSolve = "sat.solve"
	// SiteBatchItem is the per-item boundary of core.AnalyzeBatch;
	// HitKey passes the item key, so tests can fault exactly one app
	// of a batch and assert the others survive.
	SiteBatchItem = "batch.item"
	// SiteFSCreate, SiteFSWrite, SiteFSSync, SiteFSRename, and
	// SiteFSSyncDir are the filesystem boundaries of the storage tier
	// (internal/fsio). They are error sites — armed with ArmError and
	// consulted with Err — so tests can simulate short writes, fsync
	// failures, and crashed renames without panicking through the
	// serving path. Err's key is the base name of the file involved.
	SiteFSCreate  = "fsio.create"
	SiteFSWrite   = "fsio.write"
	SiteFSSync    = "fsio.sync"
	SiteFSRename  = "fsio.rename"
	SiteFSSyncDir = "fsio.syncdir"
)

// Sites returns every canonical injection site, for exhaustive
// fault-injection sweeps.
func Sites() []string {
	return []string{
		SiteAnalyze, SiteStateModel, SiteKripke, SiteGeneral, SiteTaint,
		SiteProperty, SiteEngineExplicit, SiteEngineLTL, SiteCTLParse,
		SiteLTLParse, SiteSATSolve, SiteBatchItem,
	}
}

// ErrSites returns the filesystem error-injection sites consulted via
// Err rather than Hit.
func ErrSites() []string {
	return []string{SiteFSCreate, SiteFSWrite, SiteFSSync, SiteFSRename, SiteFSSyncDir}
}

type faultKind int

const (
	faultPanic faultKind = iota
	faultBudget
	faultError
)

type fault struct {
	kind     faultKind
	key      string // match key; "" matches every key
	resource string // for faultBudget
	err      error  // for faultError
	after    int    // matching hits to let through before firing
}

var (
	enabled  atomic.Bool
	counting atomic.Bool
	mu       sync.Mutex
	armed    map[string]fault
	counts   map[string]int
)

// ArmPanic arms site to panic on its next hits. key narrows the
// trigger to HitKey calls with that key ("" triggers on any hit).
func ArmPanic(site, key string) { arm(site, fault{kind: faultPanic, key: key}) }

// ArmBudget arms site to simulate exhaustion of the named resource:
// Hit panics with an injected *guard.BudgetError, exercising the
// budget-exhaustion paths (diagnostics, undecided properties) without
// constructing a genuinely explosive input.
func ArmBudget(site, key, resource string) {
	arm(site, fault{kind: faultBudget, key: key, resource: resource})
}

// ArmError arms an error site: matching Err calls return err instead
// of nil. Unlike ArmPanic this flavor never unwinds the stack — it is
// made for I/O boundaries (internal/fsio), where the calling code must
// handle the error like any real disk failure.
func ArmError(site, key string, err error) {
	arm(site, fault{kind: faultError, key: key, err: err})
}

// ArmErrorAfter is ArmError with a fuse: the first n matching Err
// calls pass (return nil), the rest fail. Tests use it to let a write
// protocol get partway — e.g. the data file synced but the directory
// not — before the simulated crash.
func ArmErrorAfter(site, key string, err error, n int) {
	arm(site, fault{kind: faultError, key: key, err: err, after: n})
}

func arm(site string, f fault) {
	mu.Lock()
	defer mu.Unlock()
	if armed == nil {
		armed = map[string]fault{}
	}
	armed[site] = f
	enabled.Store(true)
}

// Disarm removes the fault armed at site.
func Disarm(site string) {
	mu.Lock()
	defer mu.Unlock()
	delete(armed, site)
	enabled.Store(len(armed) > 0)
}

// Reset disarms every site and stops hit counting.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	armed = nil
	counts = nil
	enabled.Store(false)
	counting.Store(false)
}

// BeginCount clears and enables the per-site hit counters, so a test
// can observe exactly which sites (and keys) the pipeline dispatched —
// e.g. that a property filter keeps unrequested properties from ever
// reaching the per-property boundary.
func BeginCount() {
	mu.Lock()
	defer mu.Unlock()
	counts = map[string]int{}
	counting.Store(true)
}

// TakeCounts disables counting and returns the recorded hit counts,
// keyed "site" for anonymous hits and "site|key" for keyed hits.
func TakeCounts() map[string]int {
	mu.Lock()
	defer mu.Unlock()
	out := counts
	counts = nil
	counting.Store(false)
	if out == nil {
		out = map[string]int{}
	}
	return out
}

// Err reports the error armed at site for key, nil when the site is
// disarmed, armed for a different key, or still burning its
// ArmErrorAfter fuse. A panic- or budget-armed site behaves exactly as
// if HitKey were called, so error sites compose with the existing
// sweep machinery. Disarmed, Err costs one atomic load (plus the
// counting path shared with Hit).
func Err(site, key string) error {
	countHit(site, key)
	if !enabled.Load() {
		return nil
	}
	mu.Lock()
	f, ok := armed[site]
	if ok && f.kind == faultError && (f.key == "" || f.key == key) && f.after > 0 {
		f.after--
		armed[site] = f
		ok = false
	}
	mu.Unlock()
	if !ok || (f.key != "" && f.key != key) {
		return nil
	}
	switch f.kind {
	case faultError:
		return f.err
	case faultBudget:
		panic(&guard.BudgetError{Resource: f.resource, Stage: site, Injected: true})
	default:
		panic(fmt.Sprintf("faultinject: injected panic at %s (key %q)", site, key))
	}
}

// Hit triggers any fault armed at site. Disarmed, it costs one atomic
// load.
func Hit(site string) { HitKey(site, "") }

// HitKey triggers any fault armed at site whose key is "" or equals
// key. Sites that check one property at a time pass the property ID
// so tests can fault a single property.
func HitKey(site, key string) {
	countHit(site, key)
	if !enabled.Load() {
		return
	}
	mu.Lock()
	f, ok := armed[site]
	mu.Unlock()
	if !ok || (f.key != "" && f.key != key) {
		return
	}
	switch f.kind {
	case faultError:
		// An error fault hit through the panic API still fires, as a
		// panic — the site was armed, the boundary must not pass clean.
		panic(fmt.Sprintf("faultinject: injected error-fault at %s (key %q): %v", site, key, f.err))
	case faultBudget:
		panic(&guard.BudgetError{Resource: f.resource, Stage: site, Injected: true})
	default:
		panic(fmt.Sprintf("faultinject: injected panic at %s (key %q)", site, key))
	}
}

// countHit records one dispatch at site/key when counting is enabled.
func countHit(site, key string) {
	if !counting.Load() {
		return
	}
	k := site
	if key != "" {
		k += "|" + key
	}
	mu.Lock()
	if counts != nil {
		counts[k]++
	}
	mu.Unlock()
}
