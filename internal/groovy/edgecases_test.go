package groovy

import (
	"strings"
	"testing"
)

func TestNestedClosures(t *testing.T) {
	f := parseOK(t, "t", `
def h() {
    devices.each { d ->
        d.states.each { s ->
            log.debug "state $s"
        }
    }
}
`)
	closures := 0
	Walk(f.Methods[0], func(n Node) bool {
		if _, ok := n.(*ClosureLit); ok {
			closures++
		}
		return true
	})
	if closures != 2 {
		t.Errorf("closures = %d, want 2", closures)
	}
}

func TestDollarWithoutIdent(t *testing.T) {
	lx, toks := lexOKLexer(t, `"price: $5"`)
	parts := lx.Parts(toks[0])
	// $ followed by a digit is literal text.
	if len(parts) != 1 || parts[0].IsExpr {
		t.Errorf("parts = %+v", parts)
	}
	if parts[0].Text != "price: $5" {
		t.Errorf("text = %q", parts[0].Text)
	}
}

func TestEscapedDollar(t *testing.T) {
	lx, toks := lexOKLexer(t, `"cost \$10"`)
	if parts := lx.Parts(toks[0]); len(parts) != 1 || parts[0].Text != "cost $10" {
		t.Errorf("parts = %+v", parts)
	}
}

func TestSafeNavigation(t *testing.T) {
	e, err := ParseExpr(`evt?.device?.label`)
	if err != nil {
		t.Fatal(err)
	}
	pe, ok := e.(*PropExpr)
	if !ok || !pe.Safe || pe.Name != "label" {
		t.Errorf("expr = %s", Format(e))
	}
}

func TestChainedElvis(t *testing.T) {
	e, err := ParseExpr(`a ?: b ?: c`)
	if err != nil {
		t.Fatal(err)
	}
	outer, ok := e.(*ElvisExpr)
	if !ok {
		t.Fatalf("expr = %T", e)
	}
	if _, ok := outer.Default.(*ElvisExpr); !ok {
		t.Errorf("elvis should chain right: %s", Format(e))
	}
}

func TestEmptyMethodAndBody(t *testing.T) {
	f := parseOK(t, "t", "def installed() { }\ndef h(evt) {\n}\n")
	if len(f.Methods) != 2 {
		t.Fatalf("methods = %d", len(f.Methods))
	}
	for _, m := range f.Methods {
		if len(m.Body.Stmts) != 0 {
			t.Errorf("%s body = %d stmts", m.Name, len(m.Body.Stmts))
		}
	}
}

func TestMultipleStatementsOneLine(t *testing.T) {
	f := parseOK(t, "t", `def h() { a = 1; b = 2; c = 3 }`)
	if n := len(f.Methods[0].Body.Stmts); n != 3 {
		t.Errorf("stmts = %d, want 3", n)
	}
}

func TestCommandCallWithMapArg(t *testing.T) {
	f := parseOK(t, "t", `sendEvent name: "status", value: "ok"`)
	call := f.Stmts[0].(*ExprStmt).X.(*CallExpr)
	if call.Name != "sendEvent" || len(call.NamedArgs) != 2 {
		t.Errorf("call = %s", Format(call))
	}
}

func TestNegativeNumberArg(t *testing.T) {
	f := parseOK(t, "t", `def h() { ther.setHeatingSetpoint(-5) }`)
	var call *CallExpr
	Walk(f.Methods[0], func(n Node) bool {
		if c, ok := n.(*CallExpr); ok && c.Name == "setHeatingSetpoint" {
			call = c
		}
		return true
	})
	u, ok := call.Args[0].(*UnaryExpr)
	if !ok || u.Op != MINUS {
		t.Errorf("arg = %s", Format(call.Args[0]))
	}
}

func TestMethodCallChain(t *testing.T) {
	e, err := ParseExpr(`the_battery.currentValue("battery").integerValue`)
	if err != nil {
		t.Fatal(err)
	}
	pe, ok := e.(*PropExpr)
	if !ok || pe.Name != "integerValue" {
		t.Fatalf("expr = %s", Format(e))
	}
	if _, ok := pe.Recv.(*CallExpr); !ok {
		t.Errorf("receiver = %T", pe.Recv)
	}
}

func TestDeepNestingIfChain(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("def h(evt) {\n")
	for i := 0; i < 30; i++ {
		sb.WriteString("if (x > 1) {\n")
	}
	sb.WriteString("dev.on()\n")
	for i := 0; i < 30; i++ {
		sb.WriteString("}\n")
	}
	sb.WriteString("}\n")
	f := parseOK(t, "deep", sb.String())
	depth := 0
	Walk(f.Methods[0], func(n Node) bool {
		if _, ok := n.(*IfStmt); ok {
			depth++
		}
		return true
	})
	if depth != 30 {
		t.Errorf("if depth = %d", depth)
	}
}

func TestKeywordsInsideStrings(t *testing.T) {
	f := parseOK(t, "t", `def h() { log.debug "if def return while" }`)
	if len(f.Methods) != 1 {
		t.Fatal("parse failed")
	}
}

func TestCRLFInput(t *testing.T) {
	f := parseOK(t, "t", "def h() {\r\n  dev.on()\r\n}\r\n")
	if len(f.Methods[0].Body.Stmts) != 1 {
		t.Errorf("stmts = %d", len(f.Methods[0].Body.Stmts))
	}
}

func TestUnicodeInStrings(t *testing.T) {
	f := parseOK(t, "t", `def h() { sendPush("温度が高い ⚠️") }`)
	var lit string
	Walk(f.Methods[0], func(n Node) bool {
		if g, ok := n.(*GStringLit); ok {
			lit, _ = g.StaticText()
		}
		return true
	})
	if !strings.Contains(lit, "温度") {
		t.Errorf("lit = %q", lit)
	}
}

func TestCommentOnlyFile(t *testing.T) {
	f := parseOK(t, "t", "// nothing here\n/* or here */\n")
	if len(f.Methods) != 0 || len(f.Stmts) != 0 {
		t.Errorf("file = %+v", f)
	}
}

func TestMapLitNestedInNamedArg(t *testing.T) {
	f := parseOK(t, "t", `page(name: "p", options: [a: 1, b: [c: 2]])`)
	call := f.Stmts[0].(*ExprStmt).X.(*CallExpr)
	if len(call.NamedArgs) != 2 {
		t.Fatalf("named = %d", len(call.NamedArgs))
	}
	m, ok := call.NamedArgs[1].Value.(*MapLit)
	if !ok || len(m.Entries) != 2 {
		t.Errorf("options = %s", Format(call.NamedArgs[1].Value))
	}
}
