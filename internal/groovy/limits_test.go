package groovy

import (
	"errors"
	"strings"
	"testing"
	"time"
	"unsafe"
)

func TestTokenSize(t *testing.T) {
	if n := unsafe.Sizeof(Token{}); n > 48 {
		t.Errorf("Token is %d bytes, want <= 48", n)
	}
}

func TestLexInvalidUTF8InLiterals(t *testing.T) {
	lx := NewLexer("'a\xffb' \"c\xfe$d\"")
	toks := lx.Tokens()
	if toks[0].Text != "a�b" {
		t.Errorf("string text = %q", toks[0].Text)
	}
	if toks[1].Text != "c�$d" {
		t.Errorf("gstring text = %q", toks[1].Text)
	}
	if parts := lx.Parts(toks[1]); len(parts) != 2 || parts[0].Text != "c�" || parts[1].Expr != "d" {
		t.Errorf("gstring parts = %+v", parts)
	}
}

// errorsOf flattens a joined error.
func errorsOf(err error) []error {
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		return j.Unwrap()
	}
	return []error{err}
}

func tooDeep(err error) bool {
	for _, e := range errorsOf(err) {
		var pe *ParseError
		if errors.As(e, &pe) && strings.HasPrefix(pe.Msg, "nesting deeper than") {
			return true
		}
	}
	return false
}

// TestMaxSizeAdversarialSources feeds Parse 1 MiB (the service's
// default source size limit) of inputs that used to exhaust the stack
// or run without bound: a bad character repeated, unclosed
// parentheses and brackets, and unclosed interpolations nested in one
// another. Each must come back as an error of at most 4 KiB.
func TestMaxSizeAdversarialSources(t *testing.T) {
	const size = 1 << 20
	for _, c := range []struct {
		name, unit string
		check      func(t *testing.T, err error)
	}{
		{"at", "@", func(t *testing.T, err error) {
			errs := errorsOf(err)
			for _, e := range errs {
				var le *LexError
				if !errors.As(e, &le) {
					t.Errorf("unexpected error %v", e)
				}
			}
			if len(errs) != maxErrors {
				t.Errorf("%d lexer errors, want %d", len(errs), maxErrors)
			}
		}},
		{"paren", "(", func(t *testing.T, err error) {
			if !tooDeep(err) {
				t.Errorf("no nesting error in %.200v", err)
			}
		}},
		{"bracket", "[", func(t *testing.T, err error) {
			if !tooDeep(err) {
				t.Errorf("no nesting error in %.200v", err)
			}
		}},
		{"interpolation", `"${`, func(t *testing.T, err error) {
			if !strings.Contains(err.Error(), "unterminated interpolation") {
				t.Errorf("no interpolation error in %.200v", err)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			src := strings.Repeat(c.unit, size/len(c.unit))
			start := time.Now()
			f, err := Parse(c.name, src)
			elapsed := time.Since(start)
			if f == nil || err == nil {
				t.Fatalf("Parse = %v, %v; want a File and an error", f, err)
			}
			c.check(t, err)
			// An error quotes at most a prefix of the failed source,
			// so its size does not grow with the input.
			if n := len(err.Error()); n > 4<<10 {
				t.Errorf("%d-byte error, want <= 4 KiB", n)
			}
			// Skipping a bad character is a loop step, not a stack
			// frame, and formats no message past the error cap.
			if c.unit == "@" && elapsed > time.Second {
				t.Errorf("Parse took %v", elapsed)
			}
			t.Logf("%v, %d-byte error", elapsed, len(err.Error()))
		})
	}
}

func TestNestingLimit(t *testing.T) {
	nest := func(n int) string {
		return strings.Repeat("(", n) + "1" + strings.Repeat(")", n)
	}
	// ParseExpr's own expression is the first level.
	if _, err := ParseExpr(nest(maxDepth - 1)); err != nil {
		t.Errorf("%d nested parentheses: %v", maxDepth-1, err)
	}
	if _, err := ParseExpr(nest(maxDepth)); !tooDeep(err) {
		t.Errorf("%d nested parentheses: err = %v, want a nesting error", maxDepth, err)
	}
	if _, err := ParseExpr(strings.Repeat("!", maxDepth) + "x"); !tooDeep(err) {
		t.Errorf("%d prefix operators: err = %v, want a nesting error", maxDepth, err)
	}
	blocks := "def h() " + strings.Repeat("{ x ", 2*maxDepth) + strings.Repeat("} ", 2*maxDepth)
	if _, err := Parse("blocks", blocks); !tooDeep(err) {
		t.Errorf("%d nested blocks: err = %v, want a nesting error", 2*maxDepth, err)
	}
	closures := strings.Repeat("f { y -> ", 2*maxDepth) + strings.Repeat("} ", 2*maxDepth)
	if _, err := Parse("closures", closures); !tooDeep(err) {
		t.Errorf("%d nested closures: err = %v, want a nesting error", 2*maxDepth, err)
	}
}

// TestInterpolationNestingLimit checks that interpolation sub-parses
// carry the depth of the expression that holds them.
func TestInterpolationNestingLimit(t *testing.T) {
	nest := func(n int) string {
		return strings.Repeat(`"${`, n) + "x" + strings.Repeat(`}"`, n)
	}
	e, err := ParseExpr(nest(maxDepth / 2))
	if err != nil {
		t.Fatalf("%d nested interpolations: %v", maxDepth/2, err)
	}
	if _, ok := e.(*GStringLit); !ok {
		t.Errorf("got %s, want a GString", Format(e))
	}
	_, err = Parse("deep", "x = "+nest(100*maxDepth))
	if !tooDeep(err) {
		t.Errorf("%d nested interpolations: err = %.200v, want a nesting error", 100*maxDepth, err)
	}
	if n := len(errorsOf(err)); n != 1 {
		t.Errorf("%d errors, want the nesting error alone", n)
	}
}

// TestLongElseIfChain checks that an else-if chain does not count as
// nesting.
func TestLongElseIfChain(t *testing.T) {
	src := "def h() { if (a) { x() }" + strings.Repeat(" else if (a) { x() }", 10*maxDepth) + " else { y() } }"
	f, err := Parse("chain", src)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for s := Stmt(f.Methods[0].Body.Stmts[0]); s != nil; n++ {
		s = s.(*IfStmt).Else
		if b, ok := s.(*Block); ok {
			if len(b.Stmts) != 1 {
				t.Errorf("final else = %d statements", len(b.Stmts))
			}
			s = nil
		}
	}
	if n != 10*maxDepth+1 {
		t.Errorf("chain of %d if statements, want %d", n, 10*maxDepth+1)
	}
}

func TestQuotePrefix(t *testing.T) {
	for _, c := range []struct {
		s    string
		n    int
		want string
	}{
		{"abc", 3, `"abc"`},
		{"abcd", 3, `"abc"…`},
		{"abé", 3, `"ab"…`}, // é is two bytes: cut before it
		{"éé", 3, `"é"…`},
		{"\t${", 64, `"\t${"`},
	} {
		if got := quotePrefix(c.s, c.n); got != c.want {
			t.Errorf("quotePrefix(%q, %d) = %s, want %s", c.s, c.n, got, c.want)
		}
	}
}
