package ltl

import (
	"sort"

	"github.com/soteria-analysis/soteria/internal/guard"
	"github.com/soteria-analysis/soteria/internal/kripke"
)

// Result of an LTL check: the property is interpreted universally over
// all paths from the structure's initial states (A f).
type Result struct {
	Formula Formula
	Holds   bool
	// Counterexample is a lasso over Kripke states when the property
	// fails; Loop is the index the path loops back to.
	Counterexample []int
	Loop           int
}

// Check decides whether every path from every initial state of k
// satisfies f, by emptiness of k × GBA(¬f).
func Check(k *kripke.Structure, f Formula) *Result {
	return CheckBudget(k, f, nil)
}

// CheckBudget is Check under a resource budget: tableau construction
// and the product search cooperatively check the wall-clock deadline,
// and reachable product states are charged against MaxStates.
// Exhaustion panics with a *guard.BudgetError for the enclosing
// recovery boundary; a nil budget disables all checks.
func CheckBudget(k *kripke.Structure, f Formula, b *guard.Budget) *Result {
	aut := build(Not(f), b)
	prod := newProduct(k, aut)
	prod.b = b
	path, loop := prod.findAcceptingLasso()
	res := &Result{Formula: f, Holds: path == nil, Loop: -1}
	if path != nil {
		res.Counterexample = path
		res.Loop = loop
	}
	return res
}

// ---------------------------------------------------------------------------
// GPVW tableau construction

type gbaNode struct {
	id       int
	incoming map[int]bool // node IDs; -1 denotes the initial marker
	new      []Formula
	old      []Formula
	next     []Formula
}

type automaton struct {
	nodes []*gbaNode
	// accept[i] is the set of node IDs in the i-th acceptance set,
	// one per Until subformula.
	accept []map[int]bool
	untils []Until
}

const initMarker = -1

func key(fs []Formula) string {
	ss := make([]string, len(fs))
	for i, f := range fs {
		ss[i] = f.String()
	}
	sort.Strings(ss)
	return "{" + joinStrings(ss) + "}"
}

func joinStrings(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += ","
		}
		out += s
	}
	return out
}

func containsF(fs []Formula, f Formula) bool {
	s := f.String()
	for _, g := range fs {
		if g.String() == s {
			return true
		}
	}
	return false
}

func addF(fs []Formula, f Formula) []Formula {
	if containsF(fs, f) {
		return fs
	}
	return append(append([]Formula{}, fs...), f)
}

type builder struct {
	nodes  []*gbaNode
	byKey  map[string]*gbaNode
	nextID int
	budget *guard.Budget
}

// build constructs the generalized Büchi automaton of f (in NNF).
func build(f Formula, budget *guard.Budget) *automaton {
	b := &builder{byKey: map[string]*gbaNode{}, budget: budget}
	start := &gbaNode{
		id:       b.fresh(),
		incoming: map[int]bool{initMarker: true},
		new:      []Formula{f},
	}
	b.expand(start)

	a := &automaton{nodes: b.nodes}
	collectUntils(f, &a.untils)
	for _, u := range a.untils {
		set := map[int]bool{}
		for _, n := range b.nodes {
			// Accepting for f1 U f2: the node does not owe the until,
			// or has already satisfied f2.
			if !containsF(n.old, u) || containsF(n.old, u.R) {
				set[n.id] = true
			}
		}
		a.accept = append(a.accept, set)
	}
	return a
}

func (b *builder) fresh() int {
	b.nextID++
	return b.nextID
}

func collectUntils(f Formula, out *[]Until) {
	switch x := f.(type) {
	case Until:
		if !untilSeen(*out, x) {
			*out = append(*out, x)
		}
		collectUntils(x.L, out)
		collectUntils(x.R, out)
	case Release:
		collectUntils(x.L, out)
		collectUntils(x.R, out)
	case And:
		collectUntils(x.L, out)
		collectUntils(x.R, out)
	case Or:
		collectUntils(x.L, out)
		collectUntils(x.R, out)
	case Next:
		collectUntils(x.X, out)
	}
}

func untilSeen(us []Until, u Until) bool {
	for _, x := range us {
		if x.String() == u.String() {
			return true
		}
	}
	return false
}

// expand is the GPVW node-splitting procedure.
func (b *builder) expand(q *gbaNode) {
	b.budget.Tick("ltl.tableau")
	if len(q.new) == 0 {
		k := key(q.old) + "|" + key(q.next)
		if r, ok := b.byKey[k]; ok {
			for _, in := range sortedIDs(q.incoming) {
				r.incoming[in] = true
			}
			return
		}
		b.byKey[k] = q
		b.nodes = append(b.nodes, q)
		succ := &gbaNode{
			id:       b.fresh(),
			incoming: map[int]bool{q.id: true},
			new:      append([]Formula{}, q.next...),
		}
		b.expand(succ)
		return
	}
	f := q.new[len(q.new)-1]
	q.new = q.new[:len(q.new)-1]
	switch x := f.(type) {
	case FalseF:
		return // contradiction: discard
	case TrueF:
		b.expand(q)
	case Prop:
		if containsF(q.old, NProp{Name: x.Name}) {
			return
		}
		q.old = addF(q.old, f)
		b.expand(q)
	case NProp:
		if containsF(q.old, Prop{Name: x.Name}) {
			return
		}
		q.old = addF(q.old, f)
		b.expand(q)
	case And:
		q.new = addF(addF(q.new, x.L), x.R)
		q.old = addF(q.old, f)
		b.expand(q)
	case Or:
		q1 := cloneNode(q, b.fresh())
		q1.new = addF(q1.new, x.L)
		q1.old = addF(q1.old, f)
		q2 := cloneNode(q, b.fresh())
		q2.new = addF(q2.new, x.R)
		q2.old = addF(q2.old, f)
		b.expand(q1)
		b.expand(q2)
	case Next:
		q.old = addF(q.old, f)
		q.next = addF(q.next, x.X)
		b.expand(q)
	case Until:
		q1 := cloneNode(q, b.fresh())
		q1.new = addF(q1.new, x.L)
		q1.next = addF(q1.next, f)
		q1.old = addF(q1.old, f)
		q2 := cloneNode(q, b.fresh())
		q2.new = addF(q2.new, x.R)
		q2.old = addF(q2.old, f)
		b.expand(q1)
		b.expand(q2)
	case Release:
		q1 := cloneNode(q, b.fresh())
		q1.new = addF(q1.new, x.R)
		q1.next = addF(q1.next, f)
		q1.old = addF(q1.old, f)
		q2 := cloneNode(q, b.fresh())
		q2.new = addF(addF(q2.new, x.L), x.R)
		q2.old = addF(q2.old, f)
		b.expand(q1)
		b.expand(q2)
	}
}

func cloneNode(q *gbaNode, id int) *gbaNode {
	inc := map[int]bool{}
	for _, k := range sortedIDs(q.incoming) {
		inc[k] = true
	}
	return &gbaNode{
		id:       id,
		incoming: inc,
		new:      append([]Formula{}, q.new...),
		old:      append([]Formula{}, q.old...),
		next:     append([]Formula{}, q.next...),
	}
}

// propLit is one propositional obligation of a node: the states of a
// proposition, which must (or, when neg, must not) contain the state.
type propLit struct {
	states kripke.StateSet
	neg    bool
}

// compatible reports whether Kripke state s satisfies the node's
// propositional obligations.
func (p *product) compatible(s int, n *gbaNode) bool {
	for _, l := range p.lits[n.id] {
		if l.states.Has(s) == l.neg {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Product and emptiness

type product struct {
	k *kripke.Structure
	a *automaton
	// succsOf maps automaton node id -> successor nodes.
	succsOf map[int][]*gbaNode
	inits   []*gbaNode
	// lits maps automaton node id -> its propositional obligations,
	// each proposition looked up once per product.
	lits map[int][]propLit
	b    *guard.Budget
}

type pstate struct {
	s int // kripke state
	q int // automaton node id
}

func newProduct(k *kripke.Structure, a *automaton) *product {
	p := &product{k: k, a: a, succsOf: map[int][]*gbaNode{}, lits: map[int][]propLit{}}
	for _, n := range a.nodes {
		for _, f := range n.old {
			switch x := f.(type) {
			case Prop:
				p.lits[n.id] = append(p.lits[n.id], propLit{states: k.PropStates(x.Name)})
			case NProp:
				p.lits[n.id] = append(p.lits[n.id], propLit{states: k.PropStates(x.Name), neg: true})
			}
		}
		for _, in := range sortedIDs(n.incoming) {
			if in == initMarker {
				p.inits = append(p.inits, n)
			} else {
				p.succsOf[in] = append(p.succsOf[in], n)
			}
		}
	}
	return p
}

// successors of a product state.
func (p *product) succs(ps pstate) []pstate {
	var out []pstate
	for _, t := range p.k.Succs[ps.s] {
		for _, qn := range p.succsOf[ps.q] {
			if p.compatible(t, qn) {
				out = append(out, pstate{s: t, q: qn.id})
			}
		}
	}
	return out
}

// findAcceptingLasso searches for a reachable cycle intersecting every
// acceptance set, returning the Kripke-state lasso.
func (p *product) findAcceptingLasso() ([]int, int) {
	// Enumerate reachable product states.
	var initStates []pstate
	for _, s := range p.k.Init {
		for _, qn := range p.inits {
			if p.compatible(s, qn) {
				initStates = append(initStates, pstate{s: s, q: qn.id})
			}
		}
	}
	index := map[pstate]int{}
	var order []pstate
	adj := map[int][]int{}
	var stack []pstate
	for _, is := range initStates {
		if _, seen := index[is]; !seen {
			index[is] = len(order)
			order = append(order, is)
			stack = append(stack, is)
		}
	}
	for len(stack) > 0 {
		p.b.Tick("ltl.product")
		ps := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range p.succs(ps) {
			if _, seen := index[t]; !seen {
				p.b.States(1, "ltl.product")
				index[t] = len(order)
				order = append(order, t)
				stack = append(stack, t)
			}
			adj[index[ps]] = append(adj[index[ps]], index[t])
		}
	}

	// Tarjan SCC over the reachable product graph.
	sccID := tarjan(len(order), adj)
	// Group members per SCC, and list the SCCs in order of their least
	// member (vertices are numbered in discovery order), so the lasso
	// is the same on every call.
	members := map[int][]int{}
	var byLeast []int
	for v, id := range sccID {
		if members[id] == nil {
			byLeast = append(byLeast, id)
		}
		members[id] = append(members[id], v)
	}
	for _, id := range byLeast {
		ms := members[id]
		if !p.sccViable(ms, adj, sccID, id) {
			continue
		}
		// Check the SCC intersects every acceptance set.
		okAll := true
		for _, acc := range p.a.accept {
			found := false
			for _, v := range ms {
				if acc[order[v].q] {
					found = true
					break
				}
			}
			if !found {
				okAll = false
				break
			}
		}
		if !okAll {
			continue
		}
		return p.buildLasso(order, adj, initStates, index, ms, sccID, id)
	}
	return nil, -1
}

// sccViable: the SCC admits an infinite run (more than one member, or
// a self-loop).
func (p *product) sccViable(ms []int, adj map[int][]int, sccID []int, id int) bool {
	if len(ms) > 1 {
		return true
	}
	v := ms[0]
	for _, w := range adj[v] {
		if w == v {
			return true
		}
	}
	return false
}

// buildLasso constructs a concrete counterexample: a stem from an
// initial product state into the SCC, then a cycle inside the SCC
// visiting a representative of every acceptance set.
func (p *product) buildLasso(order []pstate, adj map[int][]int, inits []pstate, index map[pstate]int, ms []int, sccID []int, id int) ([]int, int) {
	inSCC := map[int]bool{}
	for _, v := range ms {
		inSCC[v] = true
	}
	// Stem: BFS from any initial vertex to the SCC.
	prev := make([]int, len(order))
	for i := range prev {
		prev[i] = -2
	}
	var queue []int
	for _, is := range inits {
		v := index[is]
		if prev[v] == -2 {
			prev[v] = -1
			queue = append(queue, v)
		}
	}
	entry := -1
	for len(queue) > 0 && entry < 0 {
		v := queue[0]
		queue = queue[1:]
		if inSCC[v] {
			entry = v
			break
		}
		for _, w := range adj[v] {
			if prev[w] == -2 {
				prev[w] = v
				queue = append(queue, w)
			}
		}
	}
	if entry < 0 {
		return nil, -1
	}
	var stem []int
	for v := entry; v != -1; v = prev[v] {
		stem = append([]int{v}, stem...)
	}

	// Cycle: within the SCC, visit one representative of each
	// acceptance set, then return to entry. bfsIn finds a shortest
	// non-empty path (≥ 1 step) from `from` to a goal vertex, staying
	// in the SCC; the returned segment excludes `from`. Goal vertices
	// are tested on edge traversal, so cycles back to `from` itself
	// are found.
	bfsIn := func(from int, goal func(int) bool) []int {
		pr := map[int]int{from: -1}
		q := []int{from}
		for len(q) > 0 {
			v := q[0]
			q = q[1:]
			for _, w := range adj[v] {
				if !inSCC[w] {
					continue
				}
				if goal(w) {
					var seg []int
					for x := v; x != -1; x = pr[x] {
						seg = append([]int{x}, seg...)
					}
					seg = append(seg, w)
					return seg[1:] // exclude `from`
				}
				if _, seen := pr[w]; seen {
					continue
				}
				pr[w] = v
				q = append(q, w)
			}
		}
		return nil
	}
	cycle := []int{entry}
	cur := entry
	for _, acc := range p.a.accept {
		goal := func(v int) bool { return acc[order[v].q] }
		if goal(cur) {
			continue
		}
		seg := bfsIn(cur, goal)
		if seg == nil {
			return nil, -1
		}
		cycle = append(cycle, seg...)
		cur = cycle[len(cycle)-1]
	}
	// Close the loop back to entry with at least one step.
	seg := bfsIn(cur, func(v int) bool { return v == entry })
	if seg == nil {
		return nil, -1
	}
	cycle = append(cycle, seg...)

	// Render as Kripke states: stem + the cycle's interior. The cycle
	// both starts and ends at entry; the final entry is represented by
	// the loop-back to index `loop`, so it is not repeated.
	var path []int
	for _, v := range stem {
		path = append(path, order[v].s)
	}
	loop := len(path) - 1
	for _, v := range cycle[1 : len(cycle)-1] {
		path = append(path, order[v].s)
	}
	return path, loop
}

// sortedIDs returns a node-ID set's members in increasing order.
func sortedIDs(set map[int]bool) []int {
	ids := make([]int, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// tarjan computes SCC IDs for a graph with n vertices.
func tarjan(n int, adj map[int][]int) []int {
	ids := make([]int, n)
	low := make([]int, n)
	num := make([]int, n)
	onStack := make([]bool, n)
	for i := range num {
		num[i] = -1
		ids[i] = -1
	}
	var stack []int
	counter := 0
	sccCount := 0

	type frame struct {
		v, i int
	}
	for root := 0; root < n; root++ {
		if num[root] != -1 {
			continue
		}
		var call []frame
		call = append(call, frame{v: root})
		for len(call) > 0 {
			fr := &call[len(call)-1]
			v := fr.v
			if fr.i == 0 {
				num[v] = counter
				low[v] = counter
				counter++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			for fr.i < len(adj[v]) {
				w := adj[v][fr.i]
				fr.i++
				if num[w] == -1 {
					call = append(call, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && num[w] < low[v] {
					low[v] = num[w]
				}
			}
			if advanced {
				continue
			}
			// Post-process v.
			if low[v] == num[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					ids[w] = sccCount
					if w == v {
						break
					}
				}
				sccCount++
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				parent := call[len(call)-1].v
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
		}
	}
	return ids
}
