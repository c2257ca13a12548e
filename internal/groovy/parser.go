package groovy

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Parser builds the AST from a token stream. It is a recursive-descent
// parser with operator-precedence expression parsing. Groovy-specific
// behaviour it implements:
//
//   - command call syntax (`input "x", "capability.switch", title: "T"`),
//   - trailing closure arguments (`section("S") { ... }`),
//   - closure-only method calls (`events.count { it.value == "wet" }`),
//   - GString interpolation with nested expression parsing,
//   - reflection calls whose callee is a GString (`"$name"()`),
//   - newline-terminated statements, with newlines ignored inside
//     parentheses and brackets.
//
// Recursion is bounded: statements, expressions and the sub-parses of
// GString interpolation parts count towards one nesting depth, and a
// source that nests deeper than maxDepth levels gets a ParseError and
// ends the parse, so no input can exhaust the goroutine stack.
type Parser struct {
	lx     *Lexer // owns toks and their NUMBER and GSTRING side tables
	toks   []Token
	pos    int
	errs   []error
	fileNm string
	depth  int  // current nesting depth
	halted bool // the nesting limit stopped the parse
}

// maxDepth bounds the nesting depth of a parse: each statement, each
// expression and each prefix operator is one level. The deepest
// sources in the market corpus, MalIoT and the paper apps reach 6, 8
// and 7 levels. The bound also caps how often a chain of nested
// interpolations re-lexes the rest of its source.
const maxDepth = 64

// maxErrors caps the lexical and the syntax errors each recorded for
// one source.
const maxErrors = 50

// ParseError describes a syntax error at a source position.
type ParseError struct {
	File string
	Pos  Pos
	Msg  string
}

func (e *ParseError) Error() string {
	if e.File != "" {
		return fmt.Sprintf("%s:%s: %s", e.File, e.Pos, e.Msg)
	}
	return fmt.Sprintf("%s: %s", e.Pos, e.Msg)
}

// Parse parses a complete SmartThings app source file. name is used in
// error messages and as File.Name. On syntax errors a best-effort AST
// is returned together with a joined error.
func Parse(name, src string) (*File, error) {
	lx := NewLexer(src)
	p := &Parser{lx: lx, toks: lx.Tokens(), fileNm: name}
	f := p.parseFile()
	f.Name = name
	var errs []error
	errs = append(errs, lx.Errors()...)
	errs = append(errs, p.errs...)
	if len(errs) > 0 {
		return f, errors.Join(errs...)
	}
	return f, nil
}

// MustParse is Parse but panics on error; intended for embedding known-
// good corpus sources and for tests.
func MustParse(name, src string) *File {
	f, err := Parse(name, src)
	if err != nil {
		panic(fmt.Sprintf("groovy.MustParse(%s): %v", name, err))
	}
	return f
}

// ParseExpr parses a single expression (used for GString interpolation
// parts and for tests). Source that does not lex is not parsed: the
// error joins its lexical errors and the expression is nil.
func ParseExpr(src string) (Expr, error) {
	e, _, err := parseExprAt(src, 0)
	return e, err
}

// parseExprAt is ParseExpr for an expression that sits depth levels
// deep in an enclosing parse; halted reports that the nesting limit
// stopped it.
func parseExprAt(src string, depth int) (e Expr, halted bool, err error) {
	lx := NewLexer(src)
	toks := lx.Tokens()
	if len(lx.Errors()) > 0 {
		return nil, false, errors.Join(lx.Errors()...)
	}
	p := &Parser{lx: lx, toks: toks, depth: depth}
	e = p.parseExpr()
	if len(p.errs) > 0 {
		return e, p.halted, errors.Join(p.errs...)
	}
	return e, false, nil
}

func (p *Parser) errorf(pos Pos, format string, args ...any) {
	if len(p.errs) < maxErrors && !p.halted {
		p.errs = append(p.errs, &ParseError{File: p.fileNm, Pos: pos, Msg: fmt.Sprintf(format, args...)})
	}
}

// enter counts one level of nesting before a recursive descent. Past
// maxDepth it stops the parse (see halt) and reports false.
func (p *Parser) enter() bool {
	if p.depth >= maxDepth {
		p.halt(p.cur().Pos)
		return false
	}
	p.depth++
	return true
}

func (p *Parser) leave() { p.depth-- }

// halt records the nesting-limit error at pos and moves to EOF, so every
// pending production unwinds at once; later errors are not recorded.
func (p *Parser) halt(pos Pos) {
	p.errorf(pos, "nesting deeper than %d levels", maxDepth)
	p.halted = true
	p.pos = len(p.toks) - 1
}

func (p *Parser) cur() Token    { return p.toks[p.pos] }
func (p *Parser) kind() TokKind { return p.toks[p.pos].Kind }

func (p *Parser) peekKind(n int) TokKind {
	if p.pos+n >= len(p.toks) {
		return EOF
	}
	return p.toks[p.pos+n].Kind
}

func (p *Parser) advance() Token {
	t := p.toks[p.pos]
	if t.Kind != EOF {
		p.pos++
	}
	return t
}

func (p *Parser) at(k TokKind) bool { return p.kind() == k }

func (p *Parser) accept(k TokKind) bool {
	if p.at(k) {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expect(k TokKind) Token {
	if p.at(k) {
		return p.advance()
	}
	p.errorf(p.cur().Pos, "expected %s, found %s", k, p.cur())
	return Token{Kind: k, Pos: p.cur().Pos}
}

func (p *Parser) skipNLs() {
	for p.at(NL) {
		p.advance()
	}
}

// sync skips tokens to the next statement boundary after an error.
func (p *Parser) sync() {
	for !p.at(EOF) && !p.at(NL) && !p.at(RBRACE) {
		p.advance()
	}
	p.accept(NL)
}

// ---------------------------------------------------------------------------
// File and declarations

func (p *Parser) parseFile() *File {
	f := &File{}
	for {
		p.skipNLs()
		if p.at(EOF) {
			return f
		}
		if p.atMethodDecl() {
			f.Methods = append(f.Methods, p.parseMethodDecl())
			continue
		}
		before := p.pos
		st := p.parseStmt()
		if st != nil {
			f.Stmts = append(f.Stmts, st)
		}
		if p.pos == before {
			// Defensive: never loop without progress.
			p.advance()
		}
	}
}

// atMethodDecl reports whether the upcoming tokens start a method
// declaration: [private|public] def name ( ... or `private name(` form.
func (p *Parser) atMethodDecl() bool {
	i := 0
	if p.peekKind(i) == KwPrivate || p.peekKind(i) == KwPublic {
		i++
	}
	if p.peekKind(i) == KwDef {
		i++
		// `def name(` — but not `def x = ...`
		return p.peekKind(i) == IDENT && p.peekKind(i+1) == LPAREN && p.isMethodHeader(i)
	}
	// `private initialize() {`
	if i > 0 && p.peekKind(i) == IDENT && p.peekKind(i+1) == LPAREN {
		return p.isMethodHeader(i)
	}
	return false
}

// isMethodHeader distinguishes `def name(params) {` from a call
// statement such as `def x = foo(1)` by scanning for a `{` after the
// closing paren of the parameter list (newlines allowed between).
func (p *Parser) isMethodHeader(identOff int) bool {
	i := identOff + 1 // at LPAREN
	depth := 0
	for {
		k := p.peekKind(i)
		switch k {
		case LPAREN:
			depth++
		case RPAREN:
			depth--
			if depth == 0 {
				j := i + 1
				for p.peekKind(j) == NL {
					j++
				}
				return p.peekKind(j) == LBRACE
			}
		case EOF, LBRACE, RBRACE:
			return false
		}
		i++
	}
}

func (p *Parser) parseMethodDecl() *MethodDecl {
	start := p.cur().Pos
	private := false
	if p.at(KwPrivate) {
		private = true
		p.advance()
	} else if p.at(KwPublic) {
		p.advance()
	}
	p.accept(KwDef)
	name := p.expect(IDENT).Text
	p.expect(LPAREN)
	var params []string
	p.skipNLs()
	for !p.at(RPAREN) && !p.at(EOF) {
		// Parameters may be typed (`String msg`) — keep the last ident.
		pn := p.expect(IDENT).Text
		if p.at(IDENT) {
			pn = p.advance().Text
		}
		params = append(params, pn)
		if !p.accept(COMMA) {
			break
		}
		p.skipNLs()
	}
	p.expect(RPAREN)
	p.skipNLs()
	body := p.parseBlock()
	return &MethodDecl{Name: name, Params: params, Body: body, Private: private, Pos: start}
}

func (p *Parser) parseBlock() *Block {
	b := &Block{Pos: p.cur().Pos}
	p.expect(LBRACE)
	for {
		p.skipNLs()
		if p.at(RBRACE) || p.at(EOF) {
			break
		}
		before := p.pos
		st := p.parseStmt()
		if st != nil {
			b.Stmts = append(b.Stmts, st)
		}
		if p.pos == before {
			p.advance()
		}
	}
	p.expect(RBRACE)
	return b
}

// ---------------------------------------------------------------------------
// Statements

func (p *Parser) parseStmt() Stmt {
	if !p.enter() {
		return nil
	}
	defer p.leave()
	switch p.kind() {
	case KwIf:
		return p.parseIf()
	case KwWhile:
		return p.parseWhile()
	case KwFor:
		return p.parseFor()
	case KwSwitch:
		return p.parseSwitch()
	case KwReturn:
		pos := p.advance().Pos
		var x Expr
		if !p.at(NL) && !p.at(RBRACE) && !p.at(EOF) {
			x = p.parseExpr()
		}
		p.endStmt()
		return &ReturnStmt{X: x, Pos: pos}
	case KwBreak:
		pos := p.advance().Pos
		p.endStmt()
		return &BreakStmt{Pos: pos}
	case KwContinue:
		pos := p.advance().Pos
		p.endStmt()
		return &ContinueStmt{Pos: pos}
	case KwDef:
		return p.parseDecl()
	case LBRACE:
		return p.parseBlock()
	case IDENT:
		// Typed local declaration: `String theMessage [= e]`.
		if p.peekKind(1) == IDENT && (p.peekKind(2) == ASSIGN || p.peekKind(2) == NL ||
			p.peekKind(2) == RBRACE || p.peekKind(2) == EOF) && isTypeName(p.cur().Text) {
			typ := p.advance().Text
			name := p.advance().Text
			var init Expr
			if p.accept(ASSIGN) {
				init = p.parseExpr()
			}
			p.endStmt()
			return &DeclStmt{Name: name, Type: typ, Init: init, Pos: p.cur().Pos}
		}
	}
	return p.parseSimpleStmt()
}

// isTypeName reports whether an identifier looks like a Groovy/Java
// type in declaration position (capitalised, e.g. String, Date, Integer).
func isTypeName(s string) bool {
	return s != "" && s[0] >= 'A' && s[0] <= 'Z'
}

func (p *Parser) parseDecl() Stmt {
	pos := p.expect(KwDef).Pos
	// Optional type between def and name: `def String theMessage`.
	name := p.expect(IDENT).Text
	typ := ""
	if p.at(IDENT) && isTypeName(name) {
		typ = name
		name = p.advance().Text
	}
	var init Expr
	if p.accept(ASSIGN) {
		p.skipNLs()
		init = p.parseExpr()
	}
	p.endStmt()
	return &DeclStmt{Name: name, Type: typ, Init: init, Pos: pos}
}

// parseIf parses an if statement. An else-if chain is parsed in a loop,
// so its length does not count towards the nesting depth.
func (p *Parser) parseIf() Stmt {
	first := p.parseIfClause()
	last := first
	for {
		// `else` may appear after a newline.
		save := p.pos
		p.skipNLs()
		if !p.at(KwElse) {
			p.pos = save
			return first
		}
		p.advance()
		p.skipNLs()
		if !p.at(KwIf) {
			last.Else = p.blockOrSingle()
			return first
		}
		next := p.parseIfClause()
		last.Else = next
		last = next
	}
}

// parseIfClause parses `if (cond) body`, without an else branch.
func (p *Parser) parseIfClause() *IfStmt {
	pos := p.expect(KwIf).Pos
	p.expect(LPAREN)
	p.skipNLs()
	cond := p.parseExpr()
	p.skipNLs()
	p.expect(RPAREN)
	p.skipNLs()
	thenB := p.blockOrSingle()
	return &IfStmt{Cond: cond, Then: thenB, Pos: pos}
}

// blockOrSingle parses a braced block, or wraps a single statement in a
// Block (Groovy permits brace-less bodies).
func (p *Parser) blockOrSingle() *Block {
	if p.at(LBRACE) {
		return p.parseBlock()
	}
	pos := p.cur().Pos
	st := p.parseStmt()
	b := &Block{Pos: pos}
	if st != nil {
		b.Stmts = []Stmt{st}
	}
	return b
}

func (p *Parser) parseWhile() Stmt {
	pos := p.expect(KwWhile).Pos
	p.expect(LPAREN)
	p.skipNLs()
	cond := p.parseExpr()
	p.skipNLs()
	p.expect(RPAREN)
	p.skipNLs()
	body := p.blockOrSingle()
	return &WhileStmt{Cond: cond, Body: body, Pos: pos}
}

func (p *Parser) parseFor() Stmt {
	pos := p.expect(KwFor).Pos
	p.expect(LPAREN)
	p.skipNLs()
	p.accept(KwDef)
	v := p.expect(IDENT).Text
	if p.at(IDENT) { // typed loop var
		v = p.advance().Text
	}
	p.expect(KwIn)
	iter := p.parseExpr()
	p.skipNLs()
	p.expect(RPAREN)
	p.skipNLs()
	body := p.blockOrSingle()
	return &ForInStmt{Var: v, Iter: iter, Body: body, Pos: pos}
}

func (p *Parser) parseSwitch() Stmt {
	pos := p.expect(KwSwitch).Pos
	p.expect(LPAREN)
	p.skipNLs()
	tag := p.parseExpr()
	p.skipNLs()
	p.expect(RPAREN)
	p.skipNLs()
	p.expect(LBRACE)
	var cases []SwitchCase
	for {
		p.skipNLs()
		if p.at(RBRACE) || p.at(EOF) {
			break
		}
		cpos := p.cur().Pos
		var val Expr
		if p.accept(KwCase) {
			val = p.parseExpr()
		} else if !p.accept(KwDefault) {
			p.errorf(p.cur().Pos, "expected 'case' or 'default' in switch")
			p.sync()
			continue
		}
		p.expect(COLON)
		var body []Stmt
		for {
			p.skipNLs()
			if p.at(KwCase) || p.at(KwDefault) || p.at(RBRACE) || p.at(EOF) {
				break
			}
			before := p.pos
			st := p.parseStmt()
			if st != nil {
				body = append(body, st)
			}
			if p.pos == before {
				p.advance()
			}
		}
		cases = append(cases, SwitchCase{Value: val, Body: body, Pos: cpos})
	}
	p.expect(RBRACE)
	return &SwitchStmt{Tag: tag, Cases: cases, Pos: pos}
}

// endStmt consumes a statement terminator (newline, or the position
// immediately before a closing brace / EOF / else).
func (p *Parser) endStmt() {
	if p.at(NL) {
		p.advance()
		return
	}
	if p.at(RBRACE) || p.at(EOF) || p.at(KwElse) {
		return
	}
	p.errorf(p.cur().Pos, "expected end of statement, found %s", p.cur())
	p.sync()
}

// parseSimpleStmt parses expression statements, assignments, inc/dec,
// and Groovy command calls.
func (p *Parser) parseSimpleStmt() Stmt {
	pos := p.cur().Pos
	x := p.parseExpr()
	switch p.kind() {
	case ASSIGN, PLUSASSIGN, MINUSASSIGN:
		op := p.advance().Kind
		p.skipNLs()
		rhs := p.parseExpr()
		p.endStmt()
		return &AssignStmt{LHS: x, Op: op, RHS: rhs, Pos: pos}
	case INCR, DECR:
		decr := p.advance().Kind == DECR
		p.endStmt()
		return &IncDecStmt{X: x, Decr: decr, Pos: pos}
	}
	// Labeled entry inside a builder closure (SmartThings mappings:
	// `action: [GET: "setHome"]`): parse as a one-entry map expression.
	if id, isIdent := x.(*Ident); isIdent && p.at(COLON) {
		p.advance()
		p.skipNLs()
		v := p.parseExpr()
		p.endStmt()
		m := &MapLit{Entries: []MapEntry{{Key: id.Name, Value: v}}, Pos: pos}
		return &ExprStmt{X: m, Pos: pos}
	}
	// Command call: a bare identifier (or property path) followed by the
	// start of an argument expression on the same line.
	if isCallableRef(x) && p.startsCommandArg() {
		call := p.parseCommandCall(x, pos)
		p.endStmt()
		return &ExprStmt{X: call, Pos: pos}
	}
	// Closure-only command call in statement position:
	// `preferences { ... }`.
	if isCallableRef(x) && p.at(LBRACE) {
		call := &CallExpr{Command: true, Pos: pos}
		switch c := x.(type) {
		case *Ident:
			call.Name = c.Name
		case *PropExpr:
			call.Recv = c.Recv
			call.Name = c.Name
		}
		call.Closure = p.parseClosure()
		p.endStmt()
		return &ExprStmt{X: call, Pos: pos}
	}
	p.endStmt()
	return &ExprStmt{X: x, Pos: pos}
}

func isCallableRef(x Expr) bool {
	switch x.(type) {
	case *Ident, *PropExpr:
		return true
	}
	return false
}

// startsCommandArg reports whether the current token can begin the
// first argument of a parenthesis-free command call.
func (p *Parser) startsCommandArg() bool {
	switch p.kind() {
	case STRING, GSTRING, NUMBER, IDENT, LBRACKET, KwTrue, KwFalse, KwNull, KwNew:
		return true
	case MINUS:
		return p.peekKind(1) == NUMBER
	}
	return false
}

func (p *Parser) parseCommandCall(callee Expr, pos Pos) Expr {
	call := &CallExpr{Command: true, Pos: pos}
	switch c := callee.(type) {
	case *Ident:
		call.Name = c.Name
	case *PropExpr:
		call.Recv = c.Recv
		call.Name = c.Name
	}
	for {
		p.parseArgInto(call)
		if !p.accept(COMMA) {
			break
		}
		p.skipNLs()
	}
	// Trailing closure: `timeout 5, { ... }` handled by parseArgInto;
	// a closure directly after the last arg is also accepted.
	if p.at(LBRACE) && call.Closure == nil {
		call.Closure = p.parseClosure()
	}
	return call
}

// parseArgInto parses one argument (named or positional) into call.
func (p *Parser) parseArgInto(call *CallExpr) {
	if (p.at(IDENT) || p.at(STRING)) && p.peekKind(1) == COLON {
		key := p.advance().Text
		p.expect(COLON)
		p.skipNLs()
		v := p.parseExpr()
		call.NamedArgs = append(call.NamedArgs, MapEntry{Key: key, Value: v})
		return
	}
	if p.at(LBRACE) {
		call.Closure = p.parseClosure()
		return
	}
	call.Args = append(call.Args, p.parseExpr())
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing)

func (p *Parser) parseExpr() Expr {
	if !p.enter() {
		return &NullLit{Pos: p.cur().Pos}
	}
	x := p.parseTernary()
	p.leave()
	return x
}

func (p *Parser) parseTernary() Expr {
	cond := p.parseOr()
	switch p.kind() {
	case QUESTION:
		pos := p.advance().Pos
		p.skipNLs()
		thenE := p.parseExpr()
		p.skipNLs()
		p.expect(COLON)
		p.skipNLs()
		elseE := p.parseExpr()
		return &TernaryExpr{Cond: cond, Then: thenE, Else: elseE, Pos: pos}
	case ELVIS:
		pos := p.advance().Pos
		p.skipNLs()
		def := p.parseExpr()
		return &ElvisExpr{Value: cond, Default: def, Pos: pos}
	}
	return cond
}

func (p *Parser) parseOr() Expr {
	x := p.parseAnd()
	for p.at(OROR) {
		pos := p.advance().Pos
		p.skipNLs()
		y := p.parseAnd()
		x = &BinaryExpr{Op: OROR, L: x, R: y, Pos: pos}
	}
	return x
}

func (p *Parser) parseAnd() Expr {
	x := p.parseEquality()
	for p.at(ANDAND) {
		pos := p.advance().Pos
		p.skipNLs()
		y := p.parseEquality()
		x = &BinaryExpr{Op: ANDAND, L: x, R: y, Pos: pos}
	}
	return x
}

func (p *Parser) parseEquality() Expr {
	x := p.parseRelational()
	for p.at(EQ) || p.at(NEQ) {
		op := p.advance()
		p.skipNLs()
		y := p.parseRelational()
		x = &BinaryExpr{Op: op.Kind, L: x, R: y, Pos: op.Pos}
	}
	return x
}

func (p *Parser) parseRelational() Expr {
	x := p.parseAdditive()
	for p.at(LT) || p.at(GT) || p.at(LEQ) || p.at(GEQ) {
		op := p.advance()
		p.skipNLs()
		y := p.parseAdditive()
		x = &BinaryExpr{Op: op.Kind, L: x, R: y, Pos: op.Pos}
	}
	return x
}

func (p *Parser) parseAdditive() Expr {
	x := p.parseMultiplicative()
	for p.at(PLUS) || p.at(MINUS) {
		op := p.advance()
		p.skipNLs()
		y := p.parseMultiplicative()
		x = &BinaryExpr{Op: op.Kind, L: x, R: y, Pos: op.Pos}
	}
	return x
}

func (p *Parser) parseMultiplicative() Expr {
	x := p.parseUnary()
	for p.at(STAR) || p.at(SLASH) || p.at(PERCENT) {
		op := p.advance()
		p.skipNLs()
		y := p.parseUnary()
		x = &BinaryExpr{Op: op.Kind, L: x, R: y, Pos: op.Pos}
	}
	return x
}

func (p *Parser) parseUnary() Expr {
	switch p.kind() {
	case NOT, MINUS:
		if !p.enter() {
			return &NullLit{Pos: p.cur().Pos}
		}
		op := p.advance()
		x := p.parseUnary()
		p.leave()
		return &UnaryExpr{Op: op.Kind, X: x, Pos: op.Pos}
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() Expr {
	x := p.parsePrimary()
	for {
		switch p.kind() {
		case DOT, SAFEDOT:
			safe := p.kind() == SAFEDOT
			pos := p.advance().Pos
			p.skipNLs()
			name := p.expect(IDENT).Text
			if p.at(LPAREN) {
				call := &CallExpr{Recv: x, Name: name, Safe: safe, Pos: pos}
				p.parseParenArgs(call)
				p.maybeTrailingClosure(call)
				x = call
			} else if p.at(LBRACE) {
				// Closure-only call: recv.count { ... }
				call := &CallExpr{Recv: x, Name: name, Safe: safe, Pos: pos}
				call.Closure = p.parseClosure()
				x = call
			} else {
				x = &PropExpr{Recv: x, Name: name, Safe: safe, Pos: pos}
			}
		case LBRACKET:
			pos := p.advance().Pos
			p.skipNLs()
			idx := p.parseExpr()
			p.skipNLs()
			p.expect(RBRACKET)
			x = &IndexExpr{Recv: x, Index: idx, Pos: pos}
		case LPAREN:
			switch c := x.(type) {
			case *Ident:
				call := &CallExpr{Name: c.Name, Pos: c.Pos}
				p.parseParenArgs(call)
				p.maybeTrailingClosure(call)
				x = call
			case *GStringLit:
				// Call by reflection: "$name"(args)
				call := &CallExpr{Dynamic: c, Pos: c.Pos}
				p.parseParenArgs(call)
				p.maybeTrailingClosure(call)
				x = call
			default:
				return x
			}
		default:
			return x
		}
	}
}

// maybeTrailingClosure attaches `{ ... }` immediately following a
// parenthesized call (no newline in between) as Groovy's trailing
// closure argument.
func (p *Parser) maybeTrailingClosure(call *CallExpr) {
	if p.at(LBRACE) && call.Closure == nil {
		call.Closure = p.parseClosure()
	}
}

func (p *Parser) parseParenArgs(call *CallExpr) {
	p.expect(LPAREN)
	p.skipNLs()
	if p.accept(RPAREN) {
		return
	}
	for {
		p.parseArgInto(call)
		p.skipNLs()
		if !p.accept(COMMA) {
			break
		}
		p.skipNLs()
	}
	p.expect(RPAREN)
}

func (p *Parser) parseClosure() *ClosureLit {
	pos := p.expect(LBRACE).Pos
	cl := &ClosureLit{Pos: pos}
	// Detect a parameter list: ident [, ident]* ->
	save := p.pos
	p.skipNLs()
	var params []string
	ok := false
	for p.at(IDENT) {
		params = append(params, p.advance().Text)
		if p.at(ARROW) {
			ok = true
			break
		}
		if !p.accept(COMMA) {
			break
		}
		p.skipNLs()
	}
	if ok {
		p.expect(ARROW)
		cl.Params = params
	} else {
		p.pos = save
	}
	body := &Block{Pos: pos}
	for {
		p.skipNLs()
		if p.at(RBRACE) || p.at(EOF) {
			break
		}
		before := p.pos
		st := p.parseStmt()
		if st != nil {
			body.Stmts = append(body.Stmts, st)
		}
		if p.pos == before {
			p.advance()
		}
	}
	p.expect(RBRACE)
	cl.Body = body
	return cl
}

func (p *Parser) parsePrimary() Expr {
	t := p.cur()
	switch t.Kind {
	case NUMBER:
		p.advance()
		v, isInt := p.lx.Num(t)
		return &NumberLit{Value: v, IsInt: isInt, Raw: t.Text, Pos: t.Pos}
	case STRING:
		p.advance()
		return &StringLit{Value: t.Text, Pos: t.Pos}
	case GSTRING:
		p.advance()
		return p.buildGString(t)
	case KwTrue:
		p.advance()
		return &BoolLit{Value: true, Pos: t.Pos}
	case KwFalse:
		p.advance()
		return &BoolLit{Value: false, Pos: t.Pos}
	case KwNull:
		p.advance()
		return &NullLit{Pos: t.Pos}
	case IDENT:
		p.advance()
		return &Ident{Name: t.Text, Pos: t.Pos}
	case KwNew:
		p.advance()
		typ := p.expect(IDENT).Text
		ne := &NewExpr{Type: typ, Pos: t.Pos}
		if p.at(LPAREN) {
			call := &CallExpr{}
			p.parseParenArgs(call)
			ne.Args = call.Args
		}
		return ne
	case LPAREN:
		p.advance()
		p.skipNLs()
		x := p.parseExpr()
		p.skipNLs()
		p.expect(RPAREN)
		return x
	case LBRACKET:
		return p.parseListOrMap()
	case LBRACE:
		return p.parseClosure()
	}
	p.errorf(t.Pos, "unexpected token %s in expression", t)
	p.advance()
	return &NullLit{Pos: t.Pos}
}

func (p *Parser) parseListOrMap() Expr {
	pos := p.expect(LBRACKET).Pos
	p.skipNLs()
	if p.accept(RBRACKET) {
		return &ListLit{Pos: pos}
	}
	if p.at(COLON) { // [:] — empty map
		p.advance()
		p.skipNLs()
		p.expect(RBRACKET)
		return &MapLit{Pos: pos}
	}
	// Map if first element is `key:`.
	if (p.at(IDENT) || p.at(STRING)) && p.peekKind(1) == COLON {
		m := &MapLit{Pos: pos}
		for {
			key := p.advance().Text
			p.expect(COLON)
			p.skipNLs()
			v := p.parseExpr()
			m.Entries = append(m.Entries, MapEntry{Key: key, Value: v})
			p.skipNLs()
			if !p.accept(COMMA) {
				break
			}
			p.skipNLs()
		}
		p.expect(RBRACKET)
		return m
	}
	l := &ListLit{Pos: pos}
	for {
		l.Elems = append(l.Elems, p.parseExpr())
		p.skipNLs()
		if !p.accept(COMMA) {
			break
		}
		p.skipNLs()
	}
	p.expect(RBRACKET)
	return l
}

// buildGString parses the interpolation expressions embedded in a
// GSTRING token into full AST expressions. Each sub-parse starts at the
// current nesting depth.
func (p *Parser) buildGString(t Token) *GStringLit {
	g := &GStringLit{Raw: t.Text, Pos: t.Pos}
	parts := p.lx.Parts(t)
	if len(parts) > 0 {
		g.Parts = make([]GStringPart, 0, len(parts))
	}
	for _, part := range parts {
		if !part.IsExpr {
			g.Parts = append(g.Parts, GStringPart{Text: part.Text})
			continue
		}
		e, halted, err := parseExprAt(part.Expr, p.depth)
		if halted {
			p.halt(t.Pos)
			return g
		}
		if err != nil {
			p.errorf(t.Pos, "bad interpolation %s: %v", quotePrefix(part.Expr, maxQuote), err)
			e = &NullLit{Pos: t.Pos}
		}
		g.Parts = append(g.Parts, GStringPart{Expr: e, IsExpr: true})
	}
	return g
}

// maxQuote bounds how much of a failed source an error message quotes.
const maxQuote = 64

// quotePrefix quotes s, or its first n bytes (cut back to a rune
// boundary) followed by "…" when s is longer.
func quotePrefix(s string, n int) string {
	if len(s) <= n {
		return strconv.Quote(s)
	}
	for n > 0 && !utf8.RuneStart(s[n]) {
		n--
	}
	return strconv.Quote(s[:n]) + "…"
}

// Format returns a compact single-line rendering of an expression,
// used in diagnostics, transition labels, and tests.
func Format(e Expr) string {
	var sb strings.Builder
	formatExpr(&sb, e)
	return sb.String()
}

func formatExpr(sb *strings.Builder, e Expr) {
	switch x := e.(type) {
	case nil:
		sb.WriteString("<nil>")
	case *Ident:
		sb.WriteString(x.Name)
	case *NumberLit:
		sb.WriteString(x.Raw)
	case *StringLit:
		fmt.Fprintf(sb, "%q", x.Value)
	case *GStringLit:
		fmt.Fprintf(sb, "\"%s\"", x.Raw)
	case *BoolLit:
		fmt.Fprintf(sb, "%t", x.Value)
	case *NullLit:
		sb.WriteString("null")
	case *ListLit:
		sb.WriteString("[")
		for i, el := range x.Elems {
			if i > 0 {
				sb.WriteString(", ")
			}
			formatExpr(sb, el)
		}
		sb.WriteString("]")
	case *MapLit:
		sb.WriteString("[")
		for i, en := range x.Entries {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(en.Key)
			sb.WriteString(": ")
			formatExpr(sb, en.Value)
		}
		sb.WriteString("]")
	case *PropExpr:
		formatExpr(sb, x.Recv)
		if x.Safe {
			sb.WriteString("?.")
		} else {
			sb.WriteString(".")
		}
		sb.WriteString(x.Name)
	case *IndexExpr:
		formatExpr(sb, x.Recv)
		sb.WriteString("[")
		formatExpr(sb, x.Index)
		sb.WriteString("]")
	case *CallExpr:
		if x.Recv != nil {
			formatExpr(sb, x.Recv)
			sb.WriteString(".")
		}
		if x.Dynamic != nil {
			formatExpr(sb, x.Dynamic)
		} else {
			sb.WriteString(x.Name)
		}
		sb.WriteString("(")
		n := 0
		for _, a := range x.Args {
			if n > 0 {
				sb.WriteString(", ")
			}
			formatExpr(sb, a)
			n++
		}
		for _, na := range x.NamedArgs {
			if n > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(na.Key)
			sb.WriteString(": ")
			formatExpr(sb, na.Value)
			n++
		}
		sb.WriteString(")")
		if x.Closure != nil {
			sb.WriteString(" {...}")
		}
	case *ClosureLit:
		sb.WriteString("{...}")
	case *BinaryExpr:
		sb.WriteString("(")
		formatExpr(sb, x.L)
		sb.WriteString(" " + opText(x.Op) + " ")
		formatExpr(sb, x.R)
		sb.WriteString(")")
	case *UnaryExpr:
		sb.WriteString(opText(x.Op))
		formatExpr(sb, x.X)
	case *TernaryExpr:
		sb.WriteString("(")
		formatExpr(sb, x.Cond)
		sb.WriteString(" ? ")
		formatExpr(sb, x.Then)
		sb.WriteString(" : ")
		formatExpr(sb, x.Else)
		sb.WriteString(")")
	case *ElvisExpr:
		sb.WriteString("(")
		formatExpr(sb, x.Value)
		sb.WriteString(" ?: ")
		formatExpr(sb, x.Default)
		sb.WriteString(")")
	case *NewExpr:
		sb.WriteString("new " + x.Type + "(")
		for i, a := range x.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			formatExpr(sb, a)
		}
		sb.WriteString(")")
	default:
		fmt.Fprintf(sb, "<%T>", e)
	}
}

func opText(k TokKind) string {
	switch k {
	case EQ:
		return "=="
	case NEQ:
		return "!="
	case LT:
		return "<"
	case GT:
		return ">"
	case LEQ:
		return "<="
	case GEQ:
		return ">="
	case ANDAND:
		return "&&"
	case OROR:
		return "||"
	case NOT:
		return "!"
	case PLUS:
		return "+"
	case MINUS:
		return "-"
	case STAR:
		return "*"
	case SLASH:
		return "/"
	case PERCENT:
		return "%"
	}
	return k.String()
}
