package symexec

import (
	"fmt"

	"github.com/soteria-analysis/soteria/internal/groovy"
	"github.com/soteria-analysis/soteria/internal/ir"
	"github.com/soteria-analysis/soteria/internal/pathcond"
)

// out pairs a path state with the value an expression evaluated to on
// that path (expression evaluation can fork paths when it inlines
// method calls containing branches, or crosses a reflection site).
type out struct {
	p *pstate
	v Value
}

func dropVals(outs []out) []*pstate {
	ps := make([]*pstate, len(outs))
	for i, o := range outs {
		ps[i] = o.p
	}
	return ps
}

func one(p *pstate, v Value) []out { return []out{{p: p, v: v}} }

// eval evaluates e on path p, recording device actions as side effects
// and possibly forking the path.
func (x *executor) eval(e groovy.Expr, p *pstate) []out {
	switch ex := e.(type) {
	case *groovy.NumberLit:
		return one(p, NumVal(ex.Value))
	case *groovy.StringLit:
		return one(p, StrVal(ex.Value))
	case *groovy.BoolLit:
		return one(p, BoolVal(ex.Value))
	case *groovy.NullLit:
		return one(p, Value{Kind: KNull})
	case *groovy.GStringLit:
		return one(p, x.evalGString(ex, p))
	case *groovy.Ident:
		return one(p, x.evalIdent(ex, p))
	case *groovy.PropExpr:
		return one(p, x.evalProp(ex, p))
	case *groovy.IndexExpr:
		return one(p, SymVal(groovy.Format(ex), pathcond.UnknownSource))
	case *groovy.ListLit:
		// Opaque as a value, but element taint flows into the list
		// (lists are passed whole into sinks: sendSms body lists,
		// httpPost params).
		v := SymVal(groovy.Format(ex), pathcond.UnknownSource)
		sets := make([][]Label, 0, len(ex.Elems))
		for _, el := range ex.Elems {
			sets = append(sets, x.evalPure(el, p).Labels())
		}
		v.Taint = unionLabels(sets...)
		return one(p, v)
	case *groovy.MapLit:
		// Same for map values ([uri: "...", body: evt.value]).
		v := SymVal(groovy.Format(ex), pathcond.UnknownSource)
		sets := make([][]Label, 0, len(ex.Entries))
		for _, en := range ex.Entries {
			sets = append(sets, x.evalPure(en.Value, p).Labels())
		}
		v.Taint = unionLabels(sets...)
		return one(p, v)
	case *groovy.ClosureLit:
		return one(p, SymVal(groovy.Format(ex), pathcond.UnknownSource))
	case *groovy.NewExpr:
		return one(p, SymVal("new "+ex.Type, pathcond.UnknownSource))
	case *groovy.UnaryExpr:
		return x.evalUnary(ex, p)
	case *groovy.BinaryExpr:
		return x.evalBinary(ex, p)
	case *groovy.TernaryExpr:
		taken, notTaken := x.branch(ex.Cond, p)
		var outs []out
		if taken != nil {
			outs = append(outs, x.eval(ex.Then, taken)...)
		}
		if notTaken != nil {
			outs = append(outs, x.eval(ex.Else, notTaken)...)
		}
		return outs
	case *groovy.ElvisExpr:
		// v ?: d — at install time required inputs are set, so prefer
		// the value side unless it is concretely null.
		outs := x.eval(ex.Value, p)
		var res []out
		for _, o := range outs {
			if o.v.Kind == KNull {
				res = append(res, x.eval(ex.Default, o.p)...)
			} else {
				res = append(res, o)
			}
		}
		return res
	case *groovy.CallExpr:
		return x.evalCall(ex, p)
	}
	return one(p, SymVal(groovy.Format(e), pathcond.UnknownSource))
}

// evalPure evaluates without committing side effects or forks; used to
// decide branch conditions. If evaluation forks, the value is
// conservatively symbolic.
func (x *executor) evalPure(e groovy.Expr, p *pstate) Value {
	outs := x.eval(e, p.clone())
	if len(outs) == 1 {
		return outs[0].v
	}
	return SymVal(groovy.Format(e), pathcond.UnknownSource)
}

func (x *executor) evalIdent(id *groovy.Ident, p *pstate) Value {
	if v, ok := p.lookup(id.Name); ok {
		return v
	}
	if perm, ok := x.app.PermissionByHandle(id.Name); ok {
		if perm.Kind == ir.UserInput {
			return SymVal(id.Name, pathcond.UserDefined)
		}
		return SymVal(id.Name, pathcond.DeviceState)
	}
	switch id.Name {
	case "location", "state", "atomicState", "settings", "app", "log":
		return SymVal(id.Name, pathcond.DeviceState)
	}
	return SymVal(id.Name, pathcond.UnknownSource)
}

func (x *executor) evalProp(pe *groovy.PropExpr, p *pstate) Value {
	// Persistent state fields, with writes visible via the env.
	if f, ok := ir.StateFieldRef(pe); ok {
		if v, found := p.lookup("state." + f); found {
			return v
		}
		return SymVal("state."+f, pathcond.StateVariable)
	}
	// Device attribute reads: dev.currentTemperature and friends.
	if h, attr, ok := ir.DeviceRead(x.app, pe); ok {
		return SymVal(h+"."+attr, pathcond.DeviceState)
	}
	// Event object fields.
	if recvV := x.evalPure(pe.Recv, p); recvV.Kind == KSym {
		if recvV.Sym == "evt" {
			return SymVal("evt."+pe.Name, pathcond.DeviceState)
		}
		// location.mode: the abstract mode attribute.
		if recvV.Sym == "location" && pe.Name == "mode" {
			return SymVal("location.mode", pathcond.DeviceState)
		}
		// Conversion wrappers keep the underlying symbol.
		switch pe.Name {
		case "integerValue", "floatValue", "doubleValue", "value", "toInteger":
			return recvV
		}
		return SymVal(recvV.Sym+"."+pe.Name, pathcond.UnknownSource)
	}
	return SymVal(groovy.Format(pe), pathcond.UnknownSource)
}

func (x *executor) evalGString(g *groovy.GStringLit, p *pstate) Value {
	if s, static := g.StaticText(); static {
		return StrVal(s)
	}
	// Interpolated: concrete only if all parts are concrete. Every part
	// is evaluated regardless so a symbolic result carries the union of
	// the parts' taint marks ("${evt.displayName} left" is as sensitive
	// as evt.displayName itself).
	var sb []byte
	concrete := true
	var sets [][]Label
	for _, part := range g.Parts {
		if !part.IsExpr {
			sb = append(sb, part.Text...)
			continue
		}
		v := x.evalPure(part.Expr, p)
		sets = append(sets, v.Labels())
		switch v.Kind {
		case KStr:
			sb = append(sb, v.Str...)
		case KNum:
			sb = append(sb, fmt.Sprintf("%g", v.Num)...)
		default:
			concrete = false
		}
	}
	if concrete {
		return StrVal(string(sb))
	}
	v := SymVal(`"`+g.Raw+`"`, pathcond.UnknownSource)
	v.Taint = unionLabels(sets...)
	return v
}

func (x *executor) evalUnary(u *groovy.UnaryExpr, p *pstate) []out {
	outs := x.eval(u.X, p)
	for i := range outs {
		v := outs[i].v
		switch u.Op {
		case groovy.MINUS:
			if v.Kind == KNum {
				outs[i].v = NumVal(-v.Num)
			} else {
				nv := SymVal("-"+v.Label(), pathcond.UnknownSource)
				nv.Taint = v.Labels()
				outs[i].v = nv
			}
		case groovy.NOT:
			if v.Kind == KBool {
				outs[i].v = BoolVal(!v.Bool)
			} else {
				nv := SymVal("!"+v.Label(), pathcond.UnknownSource)
				nv.Taint = v.Labels()
				outs[i].v = nv
			}
		}
	}
	return outs
}

func (x *executor) evalBinary(b *groovy.BinaryExpr, p *pstate) []out {
	louts := x.eval(b.L, p)
	var res []out
	for _, lo := range louts {
		routs := x.eval(b.R, lo.p)
		for _, ro := range routs {
			res = append(res, out{p: ro.p, v: x.combine(b.Op, lo.v, ro.v, b)})
		}
	}
	return res
}

func (x *executor) combine(op groovy.TokKind, l, r Value, b *groovy.BinaryExpr) Value {
	if l.Kind == KNum && r.Kind == KNum {
		switch op {
		case groovy.PLUS:
			return NumVal(l.Num + r.Num)
		case groovy.MINUS:
			return NumVal(l.Num - r.Num)
		case groovy.STAR:
			return NumVal(l.Num * r.Num)
		case groovy.SLASH:
			if r.Num != 0 {
				return NumVal(l.Num / r.Num)
			}
		case groovy.EQ:
			return BoolVal(l.Num == r.Num)
		case groovy.NEQ:
			return BoolVal(l.Num != r.Num)
		case groovy.LT:
			return BoolVal(l.Num < r.Num)
		case groovy.LEQ:
			return BoolVal(l.Num <= r.Num)
		case groovy.GT:
			return BoolVal(l.Num > r.Num)
		case groovy.GEQ:
			return BoolVal(l.Num >= r.Num)
		}
	}
	if l.Kind == KStr && r.Kind == KStr {
		switch op {
		case groovy.EQ:
			return BoolVal(l.Str == r.Str)
		case groovy.NEQ:
			return BoolVal(l.Str != r.Str)
		case groovy.PLUS:
			return StrVal(l.Str + r.Str)
		}
	}
	if l.Kind == KBool && r.Kind == KBool {
		switch op {
		case groovy.ANDAND:
			return BoolVal(l.Bool && r.Bool)
		case groovy.OROR:
			return BoolVal(l.Bool || r.Bool)
		case groovy.EQ:
			return BoolVal(l.Bool == r.Bool)
		case groovy.NEQ:
			return BoolVal(l.Bool != r.Bool)
		}
	}
	// Symbolic result: data flows through operators ("x" + evt.value),
	// so the operands' taint marks union onto it.
	v := SymVal(groovy.Format(b), pathcond.UnknownSource)
	v.Taint = unionLabels(l.Labels(), r.Labels())
	return v
}

// ---------------------------------------------------------------------------
// Calls

func (x *executor) evalCall(c *groovy.CallExpr, p *pstate) []out {
	// Call by reflection with a non-static callee: fork one path per
	// app method (the paper's over-approximation, §4.2.3).
	if c.Dynamic != nil {
		if gs, ok := c.Dynamic.(*groovy.GStringLit); ok {
			if name, static := gs.StaticText(); static {
				return x.inlineCall(name, c.Args, p)
			}
			// The callee may be a known concrete binding on this path.
			if v := x.evalPure(gs, p); v.Kind == KStr {
				return x.inlineCall(v.Str, c.Args, p)
			}
			// String analysis (§7): bound the target set when every
			// assignment to the interpolated variable is a constant.
			if targets, resolved := ir.ReflectionTargets(x.app, gs); resolved {
				var outs []out
				for _, tgt := range targets {
					if x.app.File.MethodByName(tgt) != nil {
						outs = append(outs, x.inlineCall(tgt, c.Args, p.clone())...)
					}
				}
				if outs != nil {
					return outs
				}
				return one(p, Value{Kind: KNull})
			}
		}
		var outs []out
		for _, m := range x.app.File.Methods {
			outs = append(outs, x.inlineCall(m.Name, c.Args, p.clone())...)
		}
		if outs == nil {
			return one(p, Value{Kind: KNull})
		}
		return outs
	}

	// Device actions. Arguments are evaluated with the forking
	// evaluator so e.g. `setHeatingSetpoint(p > 100 ? 60 : 72)`
	// produces one path per setpoint.
	if perm, cmdName, call, ok := ir.DeviceAction(x.app, c); ok {
		return x.recordAction(perm, cmdName, call, p)
	}

	// Device attribute reads (currentValue etc.).
	if h, attr, ok := ir.DeviceRead(x.app, c); ok {
		return one(p, SymVal(h+"."+attr, pathcond.DeviceState))
	}

	// Free-standing call of an app method: inline it.
	if c.Recv == nil && x.app.File.MethodByName(c.Name) != nil {
		return x.inlineCall(c.Name, c.Args, p)
	}

	// httpGet-style platform calls with trailing closures: execute the
	// closure body (its effects are real; its inputs are symbolic). The
	// call itself may be a transmission sink (httpGet(url){resp -> ...});
	// its arguments are inspected without committing effects so the
	// path structure stays exactly as before.
	if c.Closure != nil && c.Recv == nil {
		if sinkCalls[c.Name] {
			vals := make([]Value, len(c.Args))
			for i, a := range c.Args {
				vals[i] = x.evalPure(a, p)
			}
			recordSink(p, c, vals)
		}
		p.pushFrame()
		for _, param := range c.Closure.Params {
			p.setLocal(param, SymVal(param, pathcond.UnknownSource))
		}
		if len(c.Closure.Params) == 0 {
			p.setLocal("it", SymVal("it", pathcond.UnknownSource))
		}
		outs := x.execBlock(c.Closure.Body, []*pstate{p})
		var res []out
		for _, o := range outs {
			o.popFrame()
			o.ret = nil
			res = append(res, out{p: o, v: SymVal(groovy.Format(c), pathcond.UnknownSource)})
		}
		return res
	}

	// Anything else (platform calls, collection methods) is an opaque
	// symbolic value; arguments are still evaluated for their effects,
	// and their values are kept per path for sink recording and taint
	// propagation.
	argOuts := []out{{p: p}}
	argVals := [][]Value{nil}
	for _, a := range c.Args {
		var next []out
		var nextVals [][]Value
		for i, o := range argOuts {
			for _, r := range x.eval(a, o.p) {
				next = append(next, r)
				nextVals = append(nextVals, append(append([]Value{}, argVals[i]...), r.v))
			}
		}
		argOuts = next
		argVals = nextVals
	}
	for i := range argOuts {
		if c.Recv == nil && sinkCalls[c.Name] {
			recordSink(argOuts[i].p, c, argVals[i])
		}
		v := SymVal(groovy.Format(c), pathcond.UnknownSource)
		if !(c.Recv == nil && sanitizers[c.Name]) {
			// The opaque result derives from its inputs: union the
			// receiver's and arguments' taint marks onto it. Sanitizer
			// calls are the exception — their whole point is returning a
			// scrubbed value.
			sets := make([][]Label, 0, len(argVals[i])+1)
			if c.Recv != nil {
				sets = append(sets, x.evalPure(c.Recv, argOuts[i].p).Labels())
			}
			for _, av := range argVals[i] {
				sets = append(sets, av.Labels())
			}
			v.Taint = unionLabels(sets...)
		}
		argOuts[i].v = v
	}
	return argOuts
}

// sinkCalls names the SmartThings transmission primitives: once data
// reaches one of these, it leaves the hub (SainT's sink set). Payload
// vs recipient argument positions are policy, decided by
// internal/taint; symexec records every argument.
var sinkCalls = map[string]bool{
	"sendSms": true, "sendSmsMessage": true,
	"sendPush": true, "sendPushMessage": true,
	"sendNotification": true, "sendNotificationToContacts": true, "sendNotificationEvent": true,
	"httpGet": true, "httpPost": true, "httpPostJson": true,
	"httpPut": true, "httpPutJson": true, "httpDelete": true,
	"httpHead": true,
}

// sanitizers are declassification primitives: their return value is
// derived from sensitive data but deliberately scrubbed, so taint does
// not propagate through them. An app method with one of these names is
// inlined instead (free-standing app-method calls are resolved before
// the opaque fallback), so only platform-level sanitizers clear marks.
var sanitizers = map[string]bool{
	"redact": true, "anonymize": true, "obfuscate": true,
}

// recordSink appends a transmission call to the path's sink log with
// the call-site guard and each argument's rendered value and taint.
func recordSink(p *pstate, c *groovy.CallExpr, vals []Value) {
	s := SinkCall{Name: c.Name, Pos: c.Pos, Guard: p.guard}
	for _, v := range vals {
		s.Args = append(s.Args, SinkArg{Text: v.Label(), Taint: v.Labels()})
	}
	p.sinks = append(p.sinks, s)
}

// recordAction appends the device action's attribute effects to the
// path, forking when the action's argument expression forks.
func (x *executor) recordAction(perm *ir.Permission, cmdName string, call *groovy.CallExpr, p *pstate) []out {
	if perm == nil {
		// Abstract action: setLocationMode(mode).
		if len(call.Args) == 0 {
			return one(p, Value{Kind: KNull})
		}
		outs := x.eval(call.Args[0], p)
		for _, o := range outs {
			o.p.actions = append(o.p.actions, Action{
				Handle: "location", Cap: "location", Attr: "mode",
				Value: o.v.Label(), Symbolic: o.v.Kind == KSym, ValueKind: o.v.SymKind,
				Pos: call.Pos,
			})
		}
		return nullVals(outs)
	}
	cmd, _ := perm.Cap.Command(cmdName)
	addEffects := func(q *pstate) {
		for _, eff := range cmd.Effects {
			q.actions = append(q.actions, Action{
				Handle: perm.Handle, Cap: perm.Cap.Name, Attr: eff.Attr,
				Value: eff.Value, Pos: call.Pos,
			})
		}
	}
	if cmd.ArgAttr == "" || len(call.Args) == 0 {
		addEffects(p)
		return one(p, Value{Kind: KNull})
	}
	outs := x.eval(call.Args[0], p)
	for _, o := range outs {
		addEffects(o.p)
		o.p.actions = append(o.p.actions, Action{
			Handle: perm.Handle, Cap: perm.Cap.Name, Attr: cmd.ArgAttr,
			Value: o.v.Label(), Symbolic: o.v.Kind == KSym, ValueKind: o.v.SymKind,
			Pos: call.Pos,
		})
	}
	return nullVals(outs)
}

// nullVals replaces every out value with null (actions evaluate to
// null in Groovy).
func nullVals(outs []out) []out {
	for i := range outs {
		outs[i].v = Value{Kind: KNull}
	}
	return outs
}

// inlineCall executes an app method body inline with the arguments
// bound to its parameters.
func (x *executor) inlineCall(name string, args []groovy.Expr, p *pstate) []out {
	m := x.app.File.MethodByName(name)
	if m == nil {
		return one(p, SymVal(name+"()", pathcond.UnknownSource))
	}
	if p.depth >= maxInlineDepth || contains(p.stack, name) {
		x.warnf("call to %s not inlined (depth/recursion)", name)
		return one(p, SymVal(name+"()", pathcond.UnknownSource))
	}
	// Evaluate arguments (possibly forking).
	argOuts := []out{{p: p}}
	var argVals [][]Value
	argVals = append(argVals, nil)
	for _, a := range args {
		var next []out
		var nextVals [][]Value
		for i, o := range argOuts {
			res := x.eval(a, o.p)
			for _, r := range res {
				next = append(next, r)
				nextVals = append(nextVals, append(append([]Value{}, argVals[i]...), r.v))
			}
		}
		argOuts = next
		argVals = nextVals
	}
	var outs []out
	for i, o := range argOuts {
		q := o.p
		savedRet := q.ret
		q.ret = nil
		q.depth++
		q.stack = append(q.stack, name)
		q.pushFrame()
		for pi, param := range m.Params {
			if pi < len(argVals[i]) {
				q.setLocal(param, argVals[i][pi])
			} else {
				q.setLocal(param, Value{Kind: KNull})
			}
		}
		finals := x.execBlock(m.Body, []*pstate{q})
		for _, f := range finals {
			ret := Value{Kind: KNull}
			if f.ret != nil {
				ret = *f.ret
			}
			f.ret = savedRet
			f.popFrame()
			f.depth--
			f.stack = f.stack[:len(f.stack)-1]
			outs = append(outs, out{p: f, v: ret})
		}
	}
	return outs
}

func contains(ss []string, s string) bool {
	for _, t := range ss {
		if t == s {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Conditions

// condOf converts a branch condition into a path-condition
// contribution, substituting the symbolic environment.
func (x *executor) condOf(e groovy.Expr, negated bool, p *pstate) pathcond.Cond {
	switch ex := e.(type) {
	case *groovy.BinaryExpr:
		switch ex.Op {
		case groovy.ANDAND:
			if !negated {
				return x.condOf(ex.L, false, p).And(x.condOf(ex.R, false, p))
			}
		case groovy.OROR:
			if negated {
				return x.condOf(ex.L, true, p).And(x.condOf(ex.R, true, p))
			}
		case groovy.EQ, groovy.NEQ, groovy.LT, groovy.LEQ, groovy.GT, groovy.GEQ:
			l := x.evalPure(ex.L, p)
			r := x.evalPure(ex.R, p)
			if a, ok := atomOf(l, ex.Op, r); ok {
				if negated {
					a = a.Negated()
				}
				return pathcond.True().WithAtom(a)
			}
		}
	case *groovy.UnaryExpr:
		if ex.Op == groovy.NOT {
			return x.condOf(ex.X, !negated, p)
		}
	}
	// Bare truthiness of a symbolic value, or unsupported shape.
	v := x.evalPure(e, p)
	term := v.Label()
	if v.Kind != KSym {
		term = groovy.Format(e)
	}
	return pathcond.True().WithOpaque(term, negated)
}

// atomOf builds a pathcond atom from evaluated comparison sides.
func atomOf(l Value, op groovy.TokKind, r Value) (pathcond.Atom, bool) {
	po := cmpOp(op)
	// Normalise: symbolic side on the left.
	if l.Kind != KSym && r.Kind == KSym {
		l, r = r, l
		po = swapOp(po)
	}
	if l.Kind != KSym {
		return pathcond.Atom{}, false
	}
	a := pathcond.Atom{Var: l.Sym, Op: po, VarKind: l.SymKind}
	switch r.Kind {
	case KNum:
		a.IsNum = true
		a.Num = r.Num
		a.CmpKind = pathcond.DeveloperDefined
		return a, true
	case KStr:
		a.Str = r.Str
		a.CmpKind = pathcond.DeveloperDefined
		return a, true
	case KBool:
		a.Str = fmt.Sprintf("%t", r.Bool)
		a.CmpKind = pathcond.DeveloperDefined
		return a, true
	case KSym:
		a.RHSVar = r.Sym
		a.CmpKind = r.SymKind
		return a, true
	}
	return pathcond.Atom{}, false
}

func cmpOp(k groovy.TokKind) pathcond.Op {
	switch k {
	case groovy.EQ:
		return pathcond.EQ
	case groovy.NEQ:
		return pathcond.NE
	case groovy.LT:
		return pathcond.LT
	case groovy.LEQ:
		return pathcond.LE
	case groovy.GT:
		return pathcond.GT
	case groovy.GEQ:
		return pathcond.GE
	}
	return pathcond.EQ
}

func swapOp(o pathcond.Op) pathcond.Op {
	switch o {
	case pathcond.LT:
		return pathcond.GT
	case pathcond.LE:
		return pathcond.GE
	case pathcond.GT:
		return pathcond.LT
	case pathcond.GE:
		return pathcond.LE
	}
	return o
}

// ---------------------------------------------------------------------------
// ESP merging

// mergePaths merges exploration results with identical action
// sequences, in the spirit of the ESP algorithm (§4.2.2): if the end
// states of two paths agree, their guards are joined — and when the
// two guards differ by exactly one complementary atom, that atom is
// dropped entirely.
func mergePaths(finals []*pstate) ([]Path, int) {
	groups := map[string][]pathcond.Cond{}
	actionsOf := map[string][]Action{}
	var order []string
	for _, p := range finals {
		path := Path{Guard: p.guard, Actions: p.actions}
		sig := path.ActionsSignature()
		if _, seen := groups[sig]; !seen {
			order = append(order, sig)
			actionsOf[sig] = p.actions
		}
		groups[sig] = append(groups[sig], p.guard)
	}
	var out []Path
	merged := 0
	for _, sig := range order {
		guards := groups[sig]
		guards, m := mergeGuards(guards)
		merged += m
		for _, g := range guards {
			out = append(out, Path{Guard: g, Actions: actionsOf[sig]})
		}
	}
	return out, merged
}

// mergeGuards repeatedly merges pairs of guards that differ by one
// complementary atom, and deduplicates identical guards.
func mergeGuards(gs []pathcond.Cond) ([]pathcond.Cond, int) {
	merged := 0
	for {
		progress := false
		// Dedup.
		seen := map[string]bool{}
		var uniq []pathcond.Cond
		for _, g := range gs {
			k := g.Canonical()
			if !seen[k] {
				seen[k] = true
				uniq = append(uniq, g)
			} else {
				merged++
				progress = true
			}
		}
		gs = uniq
	pairLoop:
		for i := 0; i < len(gs); i++ {
			for j := i + 1; j < len(gs); j++ {
				if g, ok := mergeTwo(gs[i], gs[j]); ok {
					gs[i] = g
					gs = append(gs[:j], gs[j+1:]...)
					merged++
					progress = true
					break pairLoop
				}
			}
		}
		if !progress {
			return gs, merged
		}
	}
}

// mergeTwo merges two guards that differ in exactly one atom with
// opposite polarity (a ∧ rest) ∨ (¬a ∧ rest) = rest.
func mergeTwo(a, b pathcond.Cond) (pathcond.Cond, bool) {
	if len(a.Atoms) != len(b.Atoms) || len(a.Opaque) != len(b.Opaque) {
		return pathcond.Cond{}, false
	}
	countA := map[string]int{}
	for _, at := range a.Atoms {
		countA[at.String()]++
	}
	for _, op := range a.Opaque {
		countA["#"+op]++
	}
	countB := map[string]int{}
	for _, at := range b.Atoms {
		countB[at.String()]++
	}
	for _, op := range b.Opaque {
		countB["#"+op]++
	}
	var onlyA, onlyB []pathcond.Atom
	for _, at := range a.Atoms {
		if countB[at.String()] == 0 {
			onlyA = append(onlyA, at)
		}
	}
	for _, at := range b.Atoms {
		if countA[at.String()] == 0 {
			onlyB = append(onlyB, at)
		}
	}
	var onlyAOp, onlyBOp []string
	for _, op := range a.Opaque {
		if countB["#"+op] == 0 {
			onlyAOp = append(onlyAOp, op)
		}
	}
	for _, op := range b.Opaque {
		if countA["#"+op] == 0 {
			onlyBOp = append(onlyBOp, op)
		}
	}

	switch {
	case len(onlyA) == 1 && len(onlyB) == 1 && len(onlyAOp) == 0 && len(onlyBOp) == 0:
		if onlyA[0].Negated() != onlyB[0] {
			return pathcond.Cond{}, false
		}
		var atoms []pathcond.Atom
		dropped := false
		for _, at := range a.Atoms {
			if !dropped && at == onlyA[0] {
				dropped = true
				continue
			}
			atoms = append(atoms, at)
		}
		return pathcond.Cond{Atoms: atoms, Opaque: a.Opaque}, true

	case len(onlyA) == 0 && len(onlyB) == 0 && len(onlyAOp) == 1 && len(onlyBOp) == 1:
		if onlyBOp[0] != "!("+onlyAOp[0]+")" && onlyAOp[0] != "!("+onlyBOp[0]+")" {
			return pathcond.Cond{}, false
		}
		var opq []string
		dropped := false
		for _, op := range a.Opaque {
			if !dropped && op == onlyAOp[0] {
				dropped = true
				continue
			}
			opq = append(opq, op)
		}
		return pathcond.Cond{Atoms: a.Atoms, Opaque: opq}, true
	}
	return pathcond.Cond{}, false
}
