// Package bdd implements reduced ordered binary decision diagrams
// (ROBDDs): the data structure behind NuSMV's symbolic model checking
// (paper §5 uses "NuSMV options that combine BDD-based model checking
// with SAT-based model checking").
//
// The Manager is a throughput-oriented kernel in the Brace/Rudell/
// Bryant tradition:
//
//   - The unique table is an open-addressed, power-of-two, linearly
//     probed hash table of node indices over the nodes arena — no
//     per-entry allocation, grow-by-doubling rehash at 3/4 load.
//   - The ITE computed table is a fixed-size, direct-mapped, lossy
//     cache (colliding entries overwrite), and Ite normalizes its
//     triple (standard-triple rules adapted to a kernel without
//     complement edges) so commutative variants hit the same slot.
//   - Quantification and renaming use a manager-level computed table
//     keyed by (op, f, g, varsID) with interned variable-set cubes and
//     shift maps, so fixpoint loops (symbolic preimages) reuse results
//     across calls instead of allocating a fresh cache per call.
package bdd

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"github.com/soteria-analysis/soteria/internal/guard"
)

// Ref is a BDD node reference. False and True are the terminals.
type Ref int

// Terminal nodes.
const (
	False Ref = 0
	True  Ref = 1
)

type node struct {
	level  int // variable level; terminals use maxLevel
	lo, hi Ref
}

const maxLevel = 1 << 30

// VarSet is an interned set of variable levels (see InternVarSet).
type VarSet int32

// Shift is an interned level-renaming map (see InternShift).
type Shift int32

// Stats is a snapshot of the kernel's table health, surfaced by the
// -bdd-bench benchmarks.
type Stats struct {
	// Nodes is the number of allocated nodes, including the two
	// terminals.
	Nodes int
	// UniqueCapacity is the unique table's slot count (a power of
	// two).
	UniqueCapacity int
	// UniqueLoad is the unique table's load factor (entries/slots).
	UniqueLoad float64
	// Rehashes counts grow-by-doubling rehashes of the unique table.
	Rehashes int
	// ITELookups/ITEHits count computed-table probes in Ite;
	// ITEHitRate is their ratio.
	ITELookups uint64
	ITEHits    uint64
	ITEHitRate float64
	// OpLookups/OpHits count quantify/rename computed-table probes;
	// OpHitRate is their ratio.
	OpLookups uint64
	OpHits    uint64
	OpHitRate float64
}

func rate(hits, lookups uint64) float64 {
	if lookups == 0 {
		return 0
	}
	return float64(hits) / float64(lookups)
}

// iteEntry is one direct-mapped computed-table slot; f == False marks
// an empty slot (Ite never caches terminal f).
type iteEntry struct {
	f, g, h, r Ref
}

// Computed-table operation tags for opEntry. Zero marks an empty slot.
const (
	opExists uint32 = iota + 1
	opAndExists
	opRename
)

// opEntry is one quantify/rename computed-table slot, keyed by
// (op, f, g, set) where set is an interned VarSet or Shift id.
type opEntry struct {
	f, g Ref
	op   uint32
	set  int32
	r    Ref
}

// varSet is an interned set of variable levels.
type varSet struct {
	member   []bool // indexed by level, sized nvars
	maxLevel int    // highest member level (-1 for the empty set)
}

// shiftMap is an interned level renaming, dense over all levels
// (identity where unmapped).
type shiftMap struct {
	apply []int32 // indexed by old level, sized nvars
}

// Initial table sizes (slots; all power-of-two). The unique table
// grows by doubling; the lossy computed tables are resized (and
// cleared) alongside it, up to their caps, so small managers stay
// small and big fixpoints get big caches.
const (
	initialUniqueSize = 1 << 8
	initialITESize    = 1 << 10
	initialOpSize     = 1 << 10
	maxITESize        = 1 << 20
	maxOpSize         = 1 << 18
)

// Manager owns the node store for a family of BDDs.
type Manager struct {
	nodes []node

	// Open-addressed unique table: slot values are node indices, 0
	// (the False terminal, never interned) marks an empty slot.
	unique      []Ref
	uniqueCount int
	rehashes    int

	// Direct-mapped lossy computed tables.
	ite []iteEntry
	ops []opEntry

	iteLookups, iteHits uint64
	opLookups, opHits   uint64

	// Interned variable sets and shift maps.
	varSets   []varSet
	varSetIdx map[string]VarSet
	shifts    []shiftMap
	shiftIdx  map[string]Shift

	nvars  int
	budget *guard.Budget
}

// SetBudget attaches a resource budget: node allocation is charged
// against MaxBDDNodes and Ite cooperatively checks the wall-clock
// deadline. A nil budget (the default) disables all checks.
func (m *Manager) SetBudget(b *guard.Budget) { m.budget = b }

// New creates a manager with the given number of variables.
func New(nvars int) *Manager {
	m := &Manager{
		unique:    make([]Ref, initialUniqueSize),
		ite:       make([]iteEntry, initialITESize),
		ops:       make([]opEntry, initialOpSize),
		varSetIdx: map[string]VarSet{},
		shiftIdx:  map[string]Shift{},
		nvars:     nvars,
	}
	m.nodes = append(m.nodes,
		node{level: maxLevel}, // False
		node{level: maxLevel}, // True
	)
	return m
}

// Size returns the number of allocated nodes (including terminals).
func (m *Manager) Size() int { return len(m.nodes) }

// Stats snapshots the kernel's table counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Nodes:          len(m.nodes),
		UniqueCapacity: len(m.unique),
		UniqueLoad:     float64(m.uniqueCount) / float64(len(m.unique)),
		Rehashes:       m.rehashes,
		ITELookups:     m.iteLookups,
		ITEHits:        m.iteHits,
		ITEHitRate:     rate(m.iteHits, m.iteLookups),
		OpLookups:      m.opLookups,
		OpHits:         m.opHits,
		OpHitRate:      rate(m.opHits, m.opLookups),
	}
}

// mix3 is the unique/computed-table hash: a phase-mix of the three key
// words (multiply-xor rounds with 64-bit odd constants, finalized by
// xor-shifts), truncated by the caller to the table's power-of-two
// mask.
func mix3(a, b, c uint64) uint64 {
	h := a * 0x9E3779B97F4A7C15
	h ^= (b + 0x9E3779B97F4A7C15) * 0xC2B2AE3D27D4EB4F
	h ^= (c + 0xC2B2AE3D27D4EB4F) * 0x165667B19E3779F9
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return h
}

// mk returns the canonical node (level, lo, hi).
func (m *Manager) mk(level int, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	mask := uint64(len(m.unique) - 1)
	slot := mix3(uint64(level), uint64(lo), uint64(hi)) & mask
	for {
		r := m.unique[slot]
		if r == 0 {
			break
		}
		if n := &m.nodes[r]; n.level == level && n.lo == lo && n.hi == hi {
			return r
		}
		slot = (slot + 1) & mask
	}
	m.budget.BDDNodes(1, "bdd")
	r := Ref(len(m.nodes))
	m.nodes = append(m.nodes, node{level: level, lo: lo, hi: hi})
	m.unique[slot] = r
	m.uniqueCount++
	if m.uniqueCount*4 > len(m.unique)*3 {
		m.growUnique()
	}
	return r
}

// growUnique doubles the unique table and reinserts every node. The
// lossy computed tables are resized (cleared) alongside it so their
// capacity tracks the live node count.
func (m *Manager) growUnique() {
	old := len(m.unique)
	m.budget.TickN(uint64(old), "bdd")
	m.unique = make([]Ref, old*2)
	mask := uint64(len(m.unique) - 1)
	for i := 2; i < len(m.nodes); i++ {
		n := &m.nodes[i]
		slot := mix3(uint64(n.level), uint64(n.lo), uint64(n.hi)) & mask
		for m.unique[slot] != 0 {
			slot = (slot + 1) & mask
		}
		m.unique[slot] = Ref(i)
	}
	m.rehashes++
	if len(m.ite) < maxITESize && len(m.ite) < len(m.unique) {
		m.ite = make([]iteEntry, len(m.ite)*2)
	}
	if len(m.ops) < maxOpSize && len(m.ops) < len(m.unique) {
		m.ops = make([]opEntry, len(m.ops)*2)
	}
}

// Var returns the BDD for variable v.
func (m *Manager) Var(v int) Ref {
	if v < 0 || v >= m.nvars {
		panic(fmt.Sprintf("bdd: variable %d out of range", v))
	}
	return m.mk(v, False, True)
}

// NVar returns the BDD for ¬v.
func (m *Manager) NVar(v int) Ref {
	if v < 0 || v >= m.nvars {
		panic(fmt.Sprintf("bdd: variable %d out of range", v))
	}
	return m.mk(v, True, False)
}

func (m *Manager) level(r Ref) int { return m.nodes[r].level }

// rankBefore reports whether a orders before b in the canonical
// operand order for commutative standard triples: by top level, then
// by reference.
func (m *Manager) rankBefore(a, b Ref) bool {
	la, lb := m.nodes[a].level, m.nodes[b].level
	if la != lb {
		return la < lb
	}
	return a < b
}

// Ite computes if-then-else(f, g, h) — the universal connective.
//
// The triple is normalized before the computed-table probe (standard
// triples, adapted to a kernel without complement edges): repeated
// arguments collapse (ITE(f,f,h)=ITE(f,1,h), ITE(f,g,f)=ITE(f,g,0))
// and the commutative forms OR (g=1) and AND (h=0) order their two
// operands canonically, so ITE(f,1,h)/ITE(h,1,f) — and the And
// variants — share one cache slot.
func (m *Manager) Ite(f, g, h Ref) Ref {
	// Terminal cases.
	if f == True {
		return g
	}
	if f == False {
		return h
	}
	if g == f {
		g = True
	}
	if h == f {
		h = False
	}
	if g == h {
		return g
	}
	if g == True && h == False {
		return f
	}
	// Commutative standard triples.
	if g == True { // f ∨ h
		if m.rankBefore(h, f) {
			f, h = h, f
		}
	} else if h == False { // f ∧ g
		if m.rankBefore(g, f) {
			f, g = g, f
		}
	}
	slot := mix3(uint64(f), uint64(g), uint64(h)) & uint64(len(m.ite)-1)
	m.iteLookups++
	if e := &m.ite[slot]; e.f == f && e.g == g && e.h == h {
		m.iteHits++
		return e.r
	}
	m.budget.Tick("bdd")
	// Split on the top variable.
	top := m.level(f)
	if l := m.level(g); l < top {
		top = l
	}
	if l := m.level(h); l < top {
		top = l
	}
	f0, f1 := m.cofactors(f, top)
	g0, g1 := m.cofactors(g, top)
	h0, h1 := m.cofactors(h, top)
	lo := m.Ite(f0, g0, h0)
	hi := m.Ite(f1, g1, h1)
	r := m.mk(top, lo, hi)
	// The table may have been resized (and cleared) by the recursion;
	// recompute the slot before the lossy overwrite.
	slot = mix3(uint64(f), uint64(g), uint64(h)) & uint64(len(m.ite)-1)
	m.ite[slot] = iteEntry{f: f, g: g, h: h, r: r}
	return r
}

func (m *Manager) cofactors(f Ref, level int) (lo, hi Ref) {
	n := m.nodes[f]
	if n.level != level {
		return f, f
	}
	return n.lo, n.hi
}

// And computes f ∧ g.
func (m *Manager) And(f, g Ref) Ref { return m.Ite(f, g, False) }

// Or computes f ∨ g.
func (m *Manager) Or(f, g Ref) Ref { return m.Ite(f, True, g) }

// Not computes ¬f.
func (m *Manager) Not(f Ref) Ref { return m.Ite(f, False, True) }

// Xor computes f ⊕ g.
func (m *Manager) Xor(f, g Ref) Ref { return m.Ite(f, m.Not(g), g) }

// Implies computes f → g.
func (m *Manager) Implies(f, g Ref) Ref { return m.Ite(f, g, True) }

// ---------------------------------------------------------------------------
// Interned variable sets and shift maps

// InternVarSet interns a set of variable levels for the Set-suffixed
// quantification entry points. Levels outside [0, nvars) can never
// label a node and are dropped. Interning is content-based: equal sets
// return equal handles, so computed-table entries keyed by the handle
// survive across calls.
func (m *Manager) InternVarSet(vars map[int]bool) VarSet {
	levels := make([]int, 0, len(vars))
	for v, on := range vars {
		if on && v >= 0 && v < m.nvars {
			levels = append(levels, v)
		}
	}
	sort.Ints(levels)
	key := levelsKey(levels)
	if id, ok := m.varSetIdx[key]; ok {
		return id
	}
	vs := varSet{member: make([]bool, m.nvars), maxLevel: -1}
	for _, v := range levels {
		vs.member[v] = true
		vs.maxLevel = v
	}
	id := VarSet(len(m.varSets))
	m.varSets = append(m.varSets, vs)
	m.varSetIdx[key] = id
	return id
}

// InternShift interns a level-renaming map (old level → new level) for
// RenameShift. The mapping must be monotone on the mapped levels —
// sorted by old level, the new levels must be strictly increasing —
// and every level must lie in [0, nvars); InternShift panics
// otherwise. (A mapping that passes this check can still cross an
// unmapped level occurring in a particular BDD; RenameShift checks
// per-node and fails loudly there too.)
func (m *Manager) InternShift(shift map[int]int) Shift {
	olds := make([]int, 0, len(shift))
	for o := range shift {
		olds = append(olds, o)
	}
	sort.Ints(olds)
	key := shiftKey(olds, shift)
	if id, ok := m.shiftIdx[key]; ok {
		return id
	}
	prev := -1
	for _, o := range olds {
		n := shift[o]
		if o < 0 || o >= m.nvars || n < 0 || n >= m.nvars {
			panic(fmt.Sprintf("bdd: Rename shift %d->%d outside variable range [0,%d)", o, n, m.nvars))
		}
		if n <= prev {
			panic(fmt.Sprintf("bdd: Rename shift map is not monotone: level %d maps to %d, not above the previous image %d", o, n, prev))
		}
		prev = n
	}
	sm := shiftMap{apply: make([]int32, m.nvars)}
	for i := range sm.apply {
		sm.apply[i] = int32(i)
	}
	for o, n := range shift {
		sm.apply[o] = int32(n)
	}
	id := Shift(len(m.shifts))
	m.shifts = append(m.shifts, sm)
	m.shiftIdx[key] = id
	return id
}

func levelsKey(levels []int) string {
	b := make([]byte, 0, 4*len(levels))
	for _, v := range levels {
		b = strconv.AppendInt(b, int64(v), 10)
		b = append(b, ',')
	}
	return string(b)
}

func shiftKey(olds []int, shift map[int]int) string {
	b := make([]byte, 0, 8*len(olds))
	for _, o := range olds {
		b = strconv.AppendInt(b, int64(o), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(shift[o]), 10)
		b = append(b, ',')
	}
	return string(b)
}

// opProbe probes the quantify/rename computed table; it returns the
// slot index and whether it holds the entry for (op, f, g, set).
func (m *Manager) opProbe(op uint32, f, g Ref, set int32) (uint64, bool) {
	slot := mix3(uint64(op)<<32|uint64(uint32(set)), uint64(f), uint64(g)) & uint64(len(m.ops)-1)
	m.opLookups++
	e := &m.ops[slot]
	if e.op == op && e.f == f && e.g == g && e.set == set {
		m.opHits++
		return slot, true
	}
	return slot, false
}

// opStore records a result in the (lossy) computed table. The table
// may have been resized by nested mk calls, so the slot is recomputed.
func (m *Manager) opStore(op uint32, f, g Ref, set int32, r Ref) {
	slot := mix3(uint64(op)<<32|uint64(uint32(set)), uint64(f), uint64(g)) & uint64(len(m.ops)-1)
	m.ops[slot] = opEntry{op: op, f: f, g: g, set: set, r: r}
}

// ---------------------------------------------------------------------------
// Quantification and renaming

// Exists existentially quantifies the variables in vars (given as a
// set of levels).
func (m *Manager) Exists(f Ref, vars map[int]bool) Ref {
	return m.ExistsSet(f, m.InternVarSet(vars))
}

// ExistsSet is Exists over an interned variable set — the allocation-
// free entry point fixpoint loops should use.
func (m *Manager) ExistsSet(f Ref, vs VarSet) Ref {
	return m.existsRec(f, &m.varSets[vs], int32(vs))
}

func (m *Manager) existsRec(f Ref, vs *varSet, id int32) Ref {
	if f == True || f == False {
		return f
	}
	n := m.nodes[f]
	if n.level > vs.maxLevel {
		// No quantified variable occurs below this level.
		return f
	}
	if slot, ok := m.opProbe(opExists, f, 0, id); ok {
		return m.ops[slot].r
	}
	m.budget.Tick("bdd")
	lo := m.existsRec(n.lo, vs, id)
	var r Ref
	if vs.member[n.level] {
		if lo == True {
			r = True
		} else {
			r = m.Or(lo, m.existsRec(n.hi, vs, id))
		}
	} else {
		r = m.mk(n.level, lo, m.existsRec(n.hi, vs, id))
	}
	m.opStore(opExists, f, 0, id, r)
	return r
}

// AndExists computes ∃vars. (f ∧ g) — the relational product used for
// symbolic preimages — without building the full conjunction first.
func (m *Manager) AndExists(f, g Ref, vars map[int]bool) Ref {
	return m.AndExistsSet(f, g, m.InternVarSet(vars))
}

// AndExistsSet is AndExists over an interned variable set.
func (m *Manager) AndExistsSet(f, g Ref, vs VarSet) Ref {
	return m.andExistsRec(f, g, &m.varSets[vs], int32(vs))
}

func (m *Manager) andExistsRec(f, g Ref, vs *varSet, id int32) Ref {
	if f == False || g == False {
		return False
	}
	if f == True {
		return m.existsRec(g, vs, id)
	}
	if g == True || f == g {
		return m.existsRec(f, vs, id)
	}
	if f > g { // ∧ commutes: canonical operand order doubles hit rate
		f, g = g, f
	}
	slot, ok := m.opProbe(opAndExists, f, g, id)
	if ok {
		return m.ops[slot].r
	}
	m.budget.Tick("bdd")
	top := m.level(f)
	if l := m.level(g); l < top {
		top = l
	}
	f0, f1 := m.cofactors(f, top)
	g0, g1 := m.cofactors(g, top)
	lo := m.andExistsRec(f0, g0, vs, id)
	var r Ref
	if top <= vs.maxLevel && vs.member[top] {
		if lo == True {
			r = True
		} else {
			r = m.Or(lo, m.andExistsRec(f1, g1, vs, id))
		}
	} else {
		r = m.mk(top, lo, m.andExistsRec(f1, g1, vs, id))
	}
	m.opStore(opAndExists, f, g, id, r)
	return r
}

// Rename substitutes variables according to the level map (old level
// -> new level). The mapping must be monotone (order-preserving) over
// the levels occurring in f, so the result remains reduced and
// ordered; a crossing rename panics (see InternShift and RenameShift)
// instead of silently producing a non-canonical BDD.
func (m *Manager) Rename(f Ref, shift map[int]int) Ref {
	return m.RenameShift(f, m.InternShift(shift))
}

// RenameShift is Rename over an interned shift map. Each rebuilt node
// is checked against its children: if the renamed level does not stay
// strictly above both subgraphs' top levels, the mapping is not
// monotone over f's levels and RenameShift panics.
func (m *Manager) RenameShift(f Ref, sh Shift) Ref {
	return m.renameRec(f, &m.shifts[sh], int32(sh))
}

func (m *Manager) renameRec(f Ref, sm *shiftMap, id int32) Ref {
	if f == True || f == False {
		return f
	}
	if slot, ok := m.opProbe(opRename, f, 0, id); ok {
		return m.ops[slot].r
	}
	m.budget.Tick("bdd")
	n := m.nodes[f]
	lvl := int(sm.apply[n.level])
	lo := m.renameRec(n.lo, sm, id)
	hi := m.renameRec(n.hi, sm, id)
	if lvl >= m.level(lo) || lvl >= m.level(hi) {
		panic(fmt.Sprintf(
			"bdd: Rename shift map is not monotone over the BDD: level %d renamed to %d does not stay above its children (levels %d, %d)",
			n.level, lvl, m.level(lo), m.level(hi)))
	}
	r := m.mk(lvl, lo, hi)
	m.opStore(opRename, f, 0, id, r)
	return r
}

// ---------------------------------------------------------------------------
// Evaluation and counting

// Eval evaluates f under a full assignment (level -> value).
func (m *Manager) Eval(f Ref, assign []bool) bool {
	for f != True && f != False {
		n := m.nodes[f]
		if assign[n.level] {
			f = n.hi
		} else {
			f = n.lo
		}
	}
	return f == True
}

// SatCount returns the number of satisfying assignments over all
// manager variables. Counts are float64: beyond 2^1024 assignments
// (roughly 1024 free variables) the count saturates to +Inf — callers
// comparing counts at very high variable counts should treat +Inf as
// "astronomically many", not as an error.
func (m *Manager) SatCount(f Ref) float64 {
	cache := map[Ref]float64{}
	var rec func(f Ref, level int) float64
	rec = func(f Ref, level int) float64 {
		if f == False {
			return 0
		}
		if f == True {
			return pow2(m.nvars - level)
		}
		n := m.nodes[f]
		below, ok := cache[f]
		if !ok {
			below = rec(n.lo, n.level+1) + rec(n.hi, n.level+1)
			cache[f] = below
		}
		return below * pow2(n.level-level)
	}
	return rec(f, 0)
}

// pow2 returns 2^n as a float64, saturating to +Inf for n > 1023
// (float64's exponent range) instead of looping n multiplications.
func pow2(n int) float64 {
	return math.Ldexp(1, n)
}
