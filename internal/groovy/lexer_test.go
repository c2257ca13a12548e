package groovy

import (
	"strings"
	"testing"
	"testing/quick"
)

func kinds(toks []Token) []TokKind {
	ks := make([]TokKind, len(toks))
	for i, t := range toks {
		ks[i] = t.Kind
	}
	return ks
}

func lexOK(t *testing.T, src string) []Token {
	t.Helper()
	_, toks := lexOKLexer(t, src)
	return toks
}

// lexOKLexer is lexOK that also returns the lexer, whose side tables
// hold NUMBER values and GSTRING parts.
func lexOKLexer(t *testing.T, src string) (*Lexer, []Token) {
	t.Helper()
	lx := NewLexer(src)
	toks := lx.Tokens()
	if errs := lx.Errors(); len(errs) > 0 {
		t.Fatalf("lex errors for %q: %v", src, errs)
	}
	return lx, toks
}

func TestLexSimpleTokens(t *testing.T) {
	toks := lexOK(t, "def x = 1 + 2")
	want := []TokKind{KwDef, IDENT, ASSIGN, NUMBER, PLUS, NUMBER, EOF}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestLexOperators(t *testing.T) {
	cases := map[string]TokKind{
		"==": EQ, "!=": NEQ, "<=": LEQ, ">=": GEQ, "&&": ANDAND,
		"||": OROR, "?:": ELVIS, "?.": SAFEDOT, "->": ARROW,
		"++": INCR, "--": DECR, "+=": PLUSASSIGN, "-=": MINUSASSIGN,
	}
	for src, want := range cases {
		toks := lexOK(t, src)
		if toks[0].Kind != want {
			t.Errorf("%q: got %v want %v", src, toks[0].Kind, want)
		}
	}
}

func TestLexComments(t *testing.T) {
	toks := lexOK(t, "a // comment\nb /* block\ncomment */ c")
	var idents []string
	for _, tok := range toks {
		if tok.Kind == IDENT {
			idents = append(idents, tok.Text)
		}
	}
	if strings.Join(idents, " ") != "a b c" {
		t.Errorf("got idents %v", idents)
	}
}

func TestLexNewlinesCollapse(t *testing.T) {
	toks := lexOK(t, "a\n\n\nb")
	want := []TokKind{IDENT, NL, IDENT, EOF}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestLexSemicolonIsNL(t *testing.T) {
	toks := lexOK(t, "a; b")
	if toks[1].Kind != NL {
		t.Errorf("semicolon should lex as NL, got %v", toks[1].Kind)
	}
}

func TestLexNumbers(t *testing.T) {
	cases := []struct {
		src   string
		val   float64
		isInt bool
	}{
		{"42", 42, true},
		{"3.14", 3.14, false},
		{"0", 0, true},
		{"10L", 10, true},
		{"2.5f", 2.5, false},
	}
	for _, c := range cases {
		lx, toks := lexOKLexer(t, c.src)
		if v, isInt := lx.Num(toks[0]); toks[0].Kind != NUMBER || v != c.val || isInt != c.isInt {
			t.Errorf("%q: got %+v (value %v, int %v)", c.src, toks[0], v, isInt)
		}
	}
}

func TestLexSingleQuoteString(t *testing.T) {
	toks := lexOK(t, `'hello world'`)
	if toks[0].Kind != STRING || toks[0].Text != "hello world" {
		t.Errorf("got %+v", toks[0])
	}
}

func TestLexStringEscapes(t *testing.T) {
	toks := lexOK(t, `'a\nb\t\'c\''`)
	if toks[0].Text != "a\nb\t'c'" {
		t.Errorf("got %q", toks[0].Text)
	}
}

func TestLexGStringPlain(t *testing.T) {
	lx, toks := lexOKLexer(t, `"no interpolation"`)
	tok := toks[0]
	if tok.Kind != GSTRING {
		t.Fatalf("kind = %v", tok.Kind)
	}
	if parts := lx.Parts(tok); len(parts) != 1 || parts[0].IsExpr || parts[0].Text != "no interpolation" {
		t.Errorf("parts = %+v", parts)
	}
}

func TestLexGStringDollarIdent(t *testing.T) {
	lx, toks := lexOKLexer(t, `"$evt.value: $evt, $settings"`)
	var exprs []string
	for _, p := range lx.Parts(toks[0]) {
		if p.IsExpr {
			exprs = append(exprs, p.Expr)
		}
	}
	want := []string{"evt.value", "evt", "settings"}
	if len(exprs) != len(want) {
		t.Fatalf("exprs = %v, want %v", exprs, want)
	}
	for i := range want {
		if exprs[i] != want[i] {
			t.Errorf("expr %d = %q want %q", i, exprs[i], want[i])
		}
	}
}

func TestLexGStringBraced(t *testing.T) {
	lx, toks := lexOKLexer(t, `"event created at: ${evt.date}"`)
	parts := lx.Parts(toks[0])
	if len(parts) != 2 {
		t.Fatalf("parts = %+v", parts)
	}
	if parts[0].Text != "event created at: " {
		t.Errorf("text part = %q", parts[0].Text)
	}
	if !parts[1].IsExpr || parts[1].Expr != "evt.date" {
		t.Errorf("expr part = %+v", parts[1])
	}
}

func TestLexGStringNestedBraces(t *testing.T) {
	lx, toks := lexOKLexer(t, `"${recentEvents?.size() ?: 0} events"`)
	parts := lx.Parts(toks[0])
	if !parts[0].IsExpr || parts[0].Expr != "recentEvents?.size() ?: 0" {
		t.Errorf("parts = %+v", parts)
	}
}

func TestLexGStringReflectionCallee(t *testing.T) {
	toks := lexOK(t, `"$name"()`)
	want := []TokKind{GSTRING, LPAREN, RPAREN, EOF}
	got := kinds(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestLexLineContinuation(t *testing.T) {
	toks := lexOK(t, "a \\\n b")
	want := []TokKind{IDENT, IDENT, EOF}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
}

func TestLexPositions(t *testing.T) {
	toks := lexOK(t, "a\n  b")
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("a at %v", toks[0].Pos)
	}
	// toks[1] is NL, toks[2] is b
	if toks[2].Pos.Line != 2 || toks[2].Pos.Col != 3 {
		t.Errorf("b at %v", toks[2].Pos)
	}
}

func TestLexUnterminatedString(t *testing.T) {
	lx := NewLexer("'abc")
	lx.Tokens()
	if len(lx.Errors()) == 0 {
		t.Error("expected error for unterminated string")
	}
}

func TestLexUnterminatedBlockComment(t *testing.T) {
	lx := NewLexer("/* abc")
	lx.Tokens()
	if len(lx.Errors()) == 0 {
		t.Error("expected error for unterminated block comment")
	}
}

func TestLexKeywordsVsIdents(t *testing.T) {
	toks := lexOK(t, "if ifx def define return returns")
	want := []TokKind{KwIf, IDENT, KwDef, IDENT, KwReturn, IDENT, EOF}
	got := kinds(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

// Property: the lexer never panics and always terminates with EOF on
// arbitrary input.
func TestLexTotalOnArbitraryInput(t *testing.T) {
	f := func(s string) bool {
		lx := NewLexer(s)
		toks := lx.Tokens()
		return len(toks) > 0 && toks[len(toks)-1].Kind == EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: lexing a valid identifier always yields exactly that IDENT.
func TestLexIdentRoundTrip(t *testing.T) {
	f := func(n uint8) bool {
		name := "v" + strings.Repeat("x", int(n%20))
		lx := NewLexer(name)
		toks := lx.Tokens()
		return toks[0].Kind == IDENT && toks[0].Text == name
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
