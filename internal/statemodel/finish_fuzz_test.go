package statemodel

import (
	"slices"
	"strconv"
	"testing"

	"github.com/soteria-analysis/soteria/internal/ir"
	"github.com/soteria-analysis/soteria/internal/pathcond"
)

// finishCase is one edge-set input: a state count, prototypes and the
// (from, to, prototype) records in insertion order.
type finishCase struct {
	n       int
	protos  []Transition
	records []edge
}

// finishEvents are the events fuzzed prototypes draw from; the two
// app touch events render alike and must share an event ID.
var finishEvents = []Event{
	{VarKey: "switch.switch", Value: "on"},
	{VarKey: "switch.switch", Value: "off"},
	{VarKey: "app.touch", Kind: ir.AppTouchEvent},
	{VarKey: "app.touch", Value: "touched", Kind: ir.AppTouchEvent},
}

// finishGuards are the residual guards fuzzed prototypes draw from.
var finishGuards = []pathcond.Cond{
	pathcond.True(),
	pathcond.True().WithAtom(pathcond.Atom{Var: "level", Op: pathcond.LT, IsNum: true, Num: 5}),
}

// decodeFinishCase reads a case from fuzz bytes: the state count, the
// prototype count, two bytes per prototype (event and guard, app) and
// then three bytes per record (from, to, prototype). Few states, apps
// and labels make repeats, shared classes and out-of-order sources
// common.
func decodeFinishCase(data []byte) finishCase {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	c := finishCase{n: 1 + next()%6}
	np := 1 + next()%6
	for p := range np {
		eg, app := next(), next()
		c.protos = append(c.protos, Transition{
			Event:   finishEvents[eg%len(finishEvents)],
			Guard:   finishGuards[eg/len(finishEvents)%len(finishGuards)],
			App:     app % 2,
			Handler: "h" + strconv.Itoa(p),
		})
	}
	for len(data) >= 3 && len(c.records) < 512 {
		c.records = append(c.records, edge{
			from:  int32(next() % c.n),
			to:    int32(next() % c.n),
			proto: int32(next() % np),
		})
	}
	return c
}

// encode is decodeFinishCase's inverse, for writing seeds.
func (c finishCase) encode() []byte {
	out := []byte{byte(c.n - 1), byte(len(c.protos) - 1)}
	for _, t := range c.protos {
		ev := slices.IndexFunc(finishEvents, func(e Event) bool { return e == t.Event })
		g := slices.IndexFunc(finishGuards, func(g pathcond.Cond) bool { return g.String() == t.Guard.String() })
		out = append(out, byte(ev+g*len(finishEvents)), byte(t.App))
	}
	for _, r := range c.records {
		out = append(out, byte(r.from), byte(r.to), byte(r.proto))
	}
	return out
}

// checkFinish runs the edge set over c and compares the model with a
// naive reference: keep the first record of each (from, to, label,
// app) in insertion order, number the rendered events in order of
// first use by a kept record, and list each source's transitions in
// index order.
func checkFinish(t *testing.T, c finishCase) {
	t.Helper()
	es := newEdgeSet(0)
	ids := make([]int32, len(c.protos))
	for i, p := range c.protos {
		ids[i] = es.proto(p)
	}
	for _, r := range c.records {
		es.add(int(r.from), int(r.to), ids[r.proto])
	}
	m := &Model{States: make([]State, c.n)}
	es.finish(m)

	type key struct {
		from, to int32
		label    string
		app      int
	}
	seen := map[key]bool{}
	var want []Transition
	var events []string
	for _, r := range c.records {
		p := c.protos[r.proto]
		k := key{r.from, r.to, p.Label(), p.App}
		if seen[k] {
			continue
		}
		seen[k] = true
		p.From, p.To = int(r.from), int(r.to)
		want = append(want, p)
		if !slices.Contains(events, p.Event.String()) {
			events = append(events, p.Event.String())
		}
	}

	if m.NumTransitions() != len(want) {
		t.Fatalf("%d transitions, want %d", m.NumTransitions(), len(want))
	}
	for i, w := range want {
		g := m.Transition(i)
		if g.From != w.From || g.To != w.To || g.App != w.App || g.Handler != w.Handler || g.Label() != w.Label() {
			t.Errorf("transition %d = %d->%d %q app %d %s, want %d->%d %q app %d %s",
				i, g.From, g.To, g.Label(), g.App, g.Handler, w.From, w.To, w.Label(), w.App, w.Handler)
		}
		if got := m.Events()[m.EventID(i)]; got != w.Event.String() {
			t.Errorf("transition %d has event %q, want %q", i, got, w.Event.String())
		}
		if got := m.TransitionLabel(i); got != w.Label() {
			t.Errorf("transition %d label %q, want %q", i, got, w.Label())
		}
	}
	if !slices.Equal(m.Events(), events) {
		t.Errorf("events = %q, want %q", m.Events(), events)
	}
	for s := range c.n {
		var out []int32
		for i, w := range want {
			if w.From == s {
				out = append(out, int32(i))
			}
		}
		if got := m.Outgoing(s); !slices.Equal(got, out) {
			t.Errorf("Outgoing(%d) = %v, want %v", s, got, out)
		}
	}
}

// finishSeeds are hand-written cases, run as unit tests and used as
// the fuzz corpus.
var finishSeeds = map[string]finishCase{
	"empty": {n: 1, protos: []Transition{{Event: finishEvents[0]}}},
	"repeat in source order": {n: 3, protos: []Transition{{Event: finishEvents[0]}}, records: []edge{
		{0, 1, 0}, {0, 2, 0}, {0, 1, 0}, {1, 2, 0}, {1, 2, 0}, {2, 0, 0}}},
	"repeat out of source order": {n: 3, protos: []Transition{{Event: finishEvents[0]}}, records: []edge{
		{1, 2, 0}, {0, 1, 0}, {1, 2, 0}, {0, 1, 0}}},
	"split source run": {n: 3, protos: []Transition{{Event: finishEvents[0]}, {Event: finishEvents[1]}}, records: []edge{
		{0, 1, 0}, {0, 2, 1}, {0, 1, 0}, {1, 1, 1}, {1, 1, 1}}},
	"interleaved prototypes": {n: 4, protos: []Transition{{Event: finishEvents[0]}, {Event: finishEvents[1], App: 1}}, records: []edge{
		{0, 1, 0}, {0, 1, 1}, {1, 2, 0}, {1, 2, 1}, {2, 3, 0}, {1, 2, 1}, {2, 3, 0}, {3, 3, 1}}},
	"class with several prototypes": {n: 3, protos: []Transition{{Event: finishEvents[0]}, {Event: finishEvents[0]}, {Event: finishEvents[0], App: 1}}, records: []edge{
		{0, 1, 0}, {0, 1, 1}, {0, 1, 2}, {1, 2, 1}, {1, 2, 0}, {2, 2, 2}}},
	"touch events share an ID": {n: 2, protos: []Transition{{Event: finishEvents[2]}, {Event: finishEvents[3], App: 1}, {Event: finishEvents[1]}}, records: []edge{
		{1, 0, 2}, {0, 0, 1}, {1, 1, 0}, {0, 0, 1}}},
	"guards split a class": {n: 2, protos: []Transition{{Event: finishEvents[0]}, {Event: finishEvents[0], Guard: finishGuards[1]}}, records: []edge{
		{0, 1, 0}, {0, 1, 1}, {0, 1, 0}, {0, 1, 1}}},
}

func TestEdgeSetFinishCases(t *testing.T) {
	for name, c := range finishSeeds {
		t.Run(name, func(t *testing.T) {
			checkFinish(t, c)
			if got := decodeFinishCase(c.encode()); !slices.Equal(got.records, c.records) || len(got.protos) != len(c.protos) {
				t.Fatalf("seed does not round-trip: %+v", got)
			}
		})
	}
}

// FuzzEdgeSetFinish checks the edge set's deduplication and event
// numbering against checkFinish's naive reference on random record
// streams.
func FuzzEdgeSetFinish(f *testing.F) {
	for _, c := range finishSeeds {
		f.Add(c.encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFinish(t, decodeFinishCase(data))
	})
}
