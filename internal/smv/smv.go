// Package smv emits the NuSMV input format for a Soteria state model
// (paper Fig. 9 shows "SMV format of State-Model" as one of the
// analyzer's outputs). The emitted module is valid NuSMV 2.6 input:
// one enumerated variable per device attribute, a TRANS disjunction
// derived from the model's labeled transitions, DEFINEs for event
// markers, and SPEC lines for the properties under check.
package smv

import (
	"fmt"
	"sort"
	"strings"

	"github.com/soteria-analysis/soteria/internal/ctl"
	"github.com/soteria-analysis/soteria/internal/statemodel"
)

// Emit renders the model as an SMV module, with the given CTL
// properties appended as SPEC lines.
func Emit(m *statemodel.Model, specs []ctl.Formula) string {
	var sb strings.Builder
	sb.WriteString("MODULE main\n")
	sb.WriteString("VAR\n")
	for _, v := range m.Vars {
		vals := make([]string, len(v.Values))
		for i, x := range v.Values {
			vals[i] = symbol(v.Key + "_" + x)
		}
		fmt.Fprintf(&sb, "  %s : {%s};\n", symbol(v.Key), strings.Join(vals, ", "))
	}
	// The event marker variable records which event fired last.
	events := map[string]bool{"none": true}
	for _, ev := range m.Events() {
		events[symbol("ev_"+ev)] = true
	}
	evList := sortedSet(events)
	fmt.Fprintf(&sb, "  _event : {%s};\n", strings.Join(evList, ", "))

	sb.WriteString("\nINIT\n  _event = none\n")

	sb.WriteString("\nTRANS\n")
	var disj []string
	for i := range m.NumTransitions() {
		t := m.Transition(i)
		var conj []string
		for vi, v := range m.Vars {
			from := symbol(v.Key + "_" + v.Values[m.States[t.From].Idx[vi]])
			to := symbol(v.Key + "_" + v.Values[m.States[t.To].Idx[vi]])
			conj = append(conj, fmt.Sprintf("%s = %s", symbol(v.Key), from))
			conj = append(conj, fmt.Sprintf("next(%s) = %s", symbol(v.Key), to))
		}
		conj = append(conj, fmt.Sprintf("next(_event) = %s", symbol("ev_"+t.Event.String())))
		if !t.Guard.IsTrue() {
			conj = append(conj, "-- guard: "+strings.ReplaceAll(t.Guard.String(), "\n", " "))
		}
		disj = append(disj, "  ("+strings.Join(withoutComments(conj), " & ")+")")
	}
	if len(disj) == 0 {
		// No behaviour: stutter.
		var conj []string
		for _, v := range m.Vars {
			conj = append(conj, fmt.Sprintf("next(%s) = %s", symbol(v.Key), symbol(v.Key)))
		}
		conj = append(conj, "next(_event) = _event")
		disj = append(disj, "  ("+strings.Join(conj, " & ")+")")
	}
	sb.WriteString(strings.Join(disj, " |\n"))
	sb.WriteString("\n")

	if len(specs) > 0 {
		sb.WriteString("\n")
		for _, f := range specs {
			fmt.Fprintf(&sb, "SPEC %s\n", formula(f))
		}
	}
	return sb.String()
}

// withoutComments drops the pseudo-conjuncts that are comments.
func withoutComments(conj []string) []string {
	var out []string
	for _, c := range conj {
		if !strings.HasPrefix(c, "--") {
			out = append(out, c)
		}
	}
	return out
}

// symbol sanitises a name into an SMV identifier.
func symbol(s string) string {
	var sb strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '_':
			sb.WriteRune(r)
		case r == '.' || r == ' ' || r == '-' || r == ':':
			sb.WriteByte('_')
		case r == '=':
			sb.WriteString("_eq_")
		case r == '<':
			sb.WriteString("_lt_")
		case r == '>':
			sb.WriteString("_gt_")
		case r == '&':
			sb.WriteString("_and_")
		case r == '!':
			sb.WriteString("_not_")
		}
	}
	out := sb.String()
	if out == "" || out[0] >= '0' && out[0] <= '9' {
		out = "v_" + out
	}
	return out
}

// formula renders a CTL formula in SMV syntax, mapping atomic
// propositions of the form "var=value" to SMV equality tests and
// "ev:<event>" markers to the _event variable.
func formula(f ctl.Formula) string {
	switch x := f.(type) {
	case ctl.Prop:
		if strings.HasPrefix(x.Name, "ev:") {
			return fmt.Sprintf("_event = %s", symbol("ev_"+strings.TrimPrefix(x.Name, "ev:")))
		}
		if i := strings.LastIndex(x.Name, "="); i > 0 {
			key, val := x.Name[:i], x.Name[i+1:]
			return fmt.Sprintf("%s = %s", symbol(key), symbol(key+"_"+val))
		}
		return symbol(x.Name)
	case ctl.TrueF:
		return "TRUE"
	case ctl.FalseF:
		return "FALSE"
	case ctl.Not:
		return "!(" + formula(x.X) + ")"
	case ctl.And:
		return "(" + formula(x.L) + " & " + formula(x.R) + ")"
	case ctl.Or:
		return "(" + formula(x.L) + " | " + formula(x.R) + ")"
	case ctl.Implies:
		return "(" + formula(x.L) + " -> " + formula(x.R) + ")"
	case ctl.EX:
		return "EX (" + formula(x.X) + ")"
	case ctl.AX:
		return "AX (" + formula(x.X) + ")"
	case ctl.EF:
		return "EF (" + formula(x.X) + ")"
	case ctl.AF:
		return "AF (" + formula(x.X) + ")"
	case ctl.EG:
		return "EG (" + formula(x.X) + ")"
	case ctl.AG:
		return "AG (" + formula(x.X) + ")"
	case ctl.EU:
		return "E [" + formula(x.A) + " U " + formula(x.B) + "]"
	case ctl.AU:
		return "A [" + formula(x.A) + " U " + formula(x.B) + "]"
	}
	return "TRUE"
}

func sortedSet(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
