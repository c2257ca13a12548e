// Package guard is the resilience layer of the analysis pipeline. It
// provides the two primitives every stage of the analyzer is wrapped
// in:
//
//   - Budget: a cooperative resource budget (wall-clock deadline,
//     context cancellation, state count, BDD node count, SAT conflict
//     count, formula nesting depth) checked inside the hot loops of
//     state-model construction and the model-checking engines. When a
//     limit is exceeded the budget panics with a *BudgetError, which
//     the enclosing recovery boundary converts to an error — the hot
//     loops stay free of error plumbing.
//
//   - Recovery boundaries: RecoverTo / Run convert panics (both
//     injected budget panics and genuine bugs on adversarial inputs)
//     into errors with captured stacks, so a malformed or explosive
//     app yields a structured partial result instead of killing the
//     process.
//
// Budgets are nil-safe: a nil *Budget performs no checks, so
// unbudgeted callers (existing tests, the default API) pay only a nil
// comparison in the hot loops.
//
// Budgets are also concurrency-safe: the resource counters are
// atomics, so one budget may be charged from several goroutines while
// still enforcing one global ceiling. Accounting is add-then-check —
// each caller charges its increment and panics if the post-add total
// exceeds the limit — so a counter can transiently overshoot the
// ceiling by at most one in-flight charge per goroutine before every
// one of them has tripped.
package guard

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// Limits bounds an analysis run. The zero value means "unlimited"
// for every resource.
type Limits struct {
	// Timeout is the wall-clock budget for the whole run.
	Timeout time.Duration
	// MaxStates caps the number of states the state model may
	// enumerate (and the LTL product may explore).
	MaxStates int
	// MaxBDDNodes caps the number of nodes a BDD manager may allocate.
	MaxBDDNodes int
	// MaxSATConflicts caps DPLL conflicts per SAT solver call.
	MaxSATConflicts int
	// MaxFormulaDepth caps the nesting depth accepted by the CTL/LTL
	// formula parsers (0 = the parsers' built-in default).
	MaxFormulaDepth int
}

// Unlimited reports whether no limit is set.
func (l Limits) Unlimited() bool {
	return l.Timeout == 0 && l.MaxStates == 0 && l.MaxBDDNodes == 0 &&
		l.MaxSATConflicts == 0 && l.MaxFormulaDepth == 0
}

// Budget tracks resource consumption against Limits. All methods are
// safe on a nil receiver (no-ops), so budget plumbing can pass nil to
// mean "unbudgeted", and safe for concurrent use by multiple
// goroutines sharing one global ceiling.
type Budget struct {
	ctx         context.Context
	deadline    time.Time
	hasDeadline bool
	lim         Limits

	states       atomic.Int64
	bddNodes     atomic.Int64
	satConflicts atomic.Int64
	ticks        atomic.Uint64
}

// tickMask amortizes the (comparatively expensive) time/context check
// in Tick to one in every 256 calls.
const tickMask = 0xff

// New creates a budget. ctx may be nil (treated as background). A
// deadline is derived from lim.Timeout and any earlier ctx deadline.
func New(ctx context.Context, lim Limits) *Budget {
	if ctx == nil {
		ctx = context.Background()
	}
	b := &Budget{ctx: ctx, lim: lim}
	if lim.Timeout > 0 {
		b.deadline = time.Now().Add(lim.Timeout)
		b.hasDeadline = true
	}
	if d, ok := ctx.Deadline(); ok && (!b.hasDeadline || d.Before(b.deadline)) {
		b.deadline = d
		b.hasDeadline = true
	}
	return b
}

// Limits returns the configured limits (zero value for nil budgets).
func (b *Budget) Limits() Limits {
	if b == nil {
		return Limits{}
	}
	return b.lim
}

// Check verifies the wall-clock deadline and context immediately
// (not amortized), panicking with a *BudgetError / *CancelError on
// exhaustion. Call it at stage entry points so an already-expired
// budget aborts promptly.
func (b *Budget) Check(stage string) {
	if b == nil {
		return
	}
	if err := b.ctx.Err(); err != nil {
		panic(&CancelError{Stage: stage, Cause: err})
	}
	if b.hasDeadline && time.Now().After(b.deadline) {
		panic(&BudgetError{Resource: "wall-clock", Limit: int64(b.lim.Timeout), Stage: stage})
	}
}

// Tick is the amortized hot-loop variant of Check: it performs the
// time/context check once every 256 calls (across all goroutines
// sharing the budget).
func (b *Budget) Tick(stage string) {
	if b == nil {
		return
	}
	if b.ticks.Add(1)&tickMask != 0 {
		return
	}
	b.Check(stage)
}

// TickN charges n hot-loop iterations at once — bulk work such as a
// BDD unique-table rehash — performing the amortized time/context
// check when the shared tick counter crosses a 256-tick boundary, so
// bulk charges keep the same checking cadence as n individual Ticks.
func (b *Budget) TickN(n uint64, stage string) {
	if b == nil || n == 0 {
		return
	}
	after := b.ticks.Add(n)
	if (after-n)>>8 == after>>8 {
		return
	}
	b.Check(stage)
}

// States charges n enumerated states, panicking with a *BudgetError
// when the MaxStates limit is exceeded.
func (b *Budget) States(n int, stage string) {
	if b == nil {
		return
	}
	total := b.states.Add(int64(n))
	if b.lim.MaxStates > 0 && total > int64(b.lim.MaxStates) {
		panic(&BudgetError{Resource: "states", Limit: int64(b.lim.MaxStates), Stage: stage})
	}
}

// BDDNodes charges n allocated BDD nodes.
func (b *Budget) BDDNodes(n int, stage string) {
	if b == nil {
		return
	}
	total := b.bddNodes.Add(int64(n))
	if b.lim.MaxBDDNodes > 0 && total > int64(b.lim.MaxBDDNodes) {
		panic(&BudgetError{Resource: "bdd-nodes", Limit: int64(b.lim.MaxBDDNodes), Stage: stage})
	}
}

// SATConflicts charges n solver conflicts.
func (b *Budget) SATConflicts(n int, stage string) {
	if b == nil {
		return
	}
	total := b.satConflicts.Add(int64(n))
	if b.lim.MaxSATConflicts > 0 && total > int64(b.lim.MaxSATConflicts) {
		panic(&BudgetError{Resource: "sat-conflicts", Limit: int64(b.lim.MaxSATConflicts), Stage: stage})
	}
}

// Spent returns the current charge totals (states, BDD nodes, SAT
// conflicts) — a consistent-enough snapshot for diagnostics and tests.
func (b *Budget) Spent() (states, bddNodes, satConflicts int64) {
	if b == nil {
		return 0, 0, 0
	}
	return b.states.Load(), b.bddNodes.Load(), b.satConflicts.Load()
}

// FormulaDepth returns the configured parser nesting limit (0 when
// unbudgeted or unset).
func (b *Budget) FormulaDepth() int {
	if b == nil {
		return 0
	}
	return b.lim.MaxFormulaDepth
}

// ---------------------------------------------------------------------------
// Errors

// BudgetError reports an exhausted resource budget.
type BudgetError struct {
	// Resource names the exhausted resource: "wall-clock", "states",
	// "bdd-nodes", "sat-conflicts", "formula-depth".
	Resource string
	// Limit is the configured bound (nanoseconds for wall-clock).
	Limit int64
	// Stage names the pipeline stage that hit the limit.
	Stage string
	// Injected marks budgets exhausted by the fault-injection harness.
	Injected bool
}

func (e *BudgetError) Error() string {
	if e.Resource == "wall-clock" {
		return fmt.Sprintf("%s: analysis budget exhausted: %s limit %s", e.Stage, e.Resource, time.Duration(e.Limit))
	}
	return fmt.Sprintf("%s: analysis budget exhausted: %s limit %d", e.Stage, e.Resource, e.Limit)
}

// CancelError reports context cancellation.
type CancelError struct {
	Stage string
	Cause error
}

func (e *CancelError) Error() string {
	return fmt.Sprintf("%s: analysis canceled: %v", e.Stage, e.Cause)
}

func (e *CancelError) Unwrap() error { return e.Cause }

// PanicError wraps a recovered panic with its stack.
type PanicError struct {
	Stage string
	Value any
	Stack string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("%s: internal fault: %v", e.Stage, e.Value)
}

// IsBudget reports whether err is (or wraps) a budget exhaustion or
// cancellation — i.e. the analysis ran out of resources rather than
// hitting a bug or bad input.
func IsBudget(err error) bool {
	var be *BudgetError
	var ce *CancelError
	return errors.As(err, &be) || errors.As(err, &ce)
}

// IsPanic reports whether err is (or wraps) a recovered panic.
func IsPanic(err error) bool {
	var pe *PanicError
	return errors.As(err, &pe)
}

// ---------------------------------------------------------------------------
// Recovery boundaries

// RecoverTo is the deferred half of a recovery boundary:
//
//	func stage() (err error) {
//	    defer guard.RecoverTo(&err, "stage")
//	    ...
//	}
//
// Budget and cancellation panics pass through as their error values;
// any other panic becomes a *PanicError with the captured stack. When
// fn already returned an error, a recovered panic takes precedence.
func RecoverTo(errp *error, stage string) {
	r := recover()
	if r == nil {
		return
	}
	switch v := r.(type) {
	case *BudgetError:
		*errp = v
	case *CancelError:
		*errp = v
	case *PanicError:
		*errp = v
	default:
		*errp = &PanicError{Stage: stage, Value: v, Stack: string(debug.Stack())}
	}
}

// Run executes fn inside a recovery boundary.
func Run(stage string, fn func() error) (err error) {
	defer RecoverTo(&err, stage)
	return fn()
}

// ---------------------------------------------------------------------------
// Diagnostics

// DiagKind classifies a diagnostic.
type DiagKind string

// Diagnostic kinds.
const (
	// DiagPanic marks a recovered panic (internal fault or injected).
	DiagPanic DiagKind = "panic"
	// DiagBudget marks resource-budget exhaustion or cancellation.
	DiagBudget DiagKind = "budget"
	// DiagError marks an ordinary stage error.
	DiagError DiagKind = "error"
)

// Diagnostic describes one contained failure of the pipeline: which
// stage failed, for which property and engine (when applicable), and
// why. Diagnostics accompany partial results instead of aborting the
// whole analysis.
type Diagnostic struct {
	// Stage is the pipeline stage ("statemodel", "properties.general",
	// "engine.explicit", ...).
	Stage string
	// Property is the property ID being checked, when applicable.
	Property string
	// Engine is the model-checking engine involved, when applicable.
	Engine string
	Kind   DiagKind
	// Message is the human-readable failure description.
	Message string
	// Stack is the captured goroutine stack for panics.
	Stack string
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

// Diagnose classifies err into a Diagnostic.
func Diagnose(stage, property, engine string, err error) Diagnostic {
	d := Diagnostic{Stage: stage, Property: property, Engine: engine, Message: err.Error()}
	switch {
	case IsBudget(err):
		d.Kind = DiagBudget
	case IsPanic(err):
		d.Kind = DiagPanic
		var pe *PanicError
		if errors.As(err, &pe) {
			d.Stack = pe.Stack
		}
	default:
		d.Kind = DiagError
	}
	return d
}
