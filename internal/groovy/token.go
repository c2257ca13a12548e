// Package groovy implements a lexer and parser for the subset of the
// Groovy language used by SmartThings IoT apps.
//
// The subset covers everything Soteria's analysis consumes: the
// definition/preferences/input metadata blocks, event subscriptions,
// method declarations, closures, conditionals, GString interpolation,
// the elvis and ternary operators, persistent state-object fields, and
// Groovy's parenthesis-free "command" call syntax. The parser produces
// the AST defined in ast.go; Soteria's IR extraction (internal/ir)
// consumes that AST the same way the paper's Groovy compiler hook
// consumed the real Groovy AST.
package groovy

import "fmt"

// TokKind identifies the lexical class of a token.
type TokKind int

// Token kinds produced by the Lexer.
const (
	EOF TokKind = iota
	NL          // newline or semicolon: statement separator
	IDENT
	NUMBER
	STRING  // single-quoted string (no interpolation)
	GSTRING // double-quoted string (may carry interpolation parts)

	// Punctuation.
	LPAREN   // (
	RPAREN   // )
	LBRACE   // {
	RBRACE   // }
	LBRACKET // [
	RBRACKET // ]
	COMMA    // ,
	DOT      // .
	SAFEDOT  // ?.
	COLON    // :
	ARROW    // ->
	QUESTION // ?
	ELVIS    // ?:

	// Operators.
	ASSIGN     // =
	PLUSASSIGN // +=
	MINUSASSIGN
	EQ  // ==
	NEQ // !=
	LT
	GT
	LEQ
	GEQ
	ANDAND // &&
	OROR   // ||
	NOT    // !
	PLUS
	MINUS
	STAR
	SLASH
	PERCENT
	INCR // ++
	DECR // --

	// Keywords.
	KwDef
	KwIf
	KwElse
	KwReturn
	KwTrue
	KwFalse
	KwNull
	KwWhile
	KwFor
	KwIn
	KwNew
	KwPrivate
	KwPublic
	KwSwitch
	KwCase
	KwDefault
	KwBreak
	KwContinue
)

var kindNames = map[TokKind]string{
	EOF: "EOF", NL: "newline", IDENT: "identifier", NUMBER: "number",
	STRING: "string", GSTRING: "gstring",
	LPAREN: "'('", RPAREN: "')'", LBRACE: "'{'", RBRACE: "'}'",
	LBRACKET: "'['", RBRACKET: "']'", COMMA: "','", DOT: "'.'",
	SAFEDOT: "'?.'", COLON: "':'", ARROW: "'->'", QUESTION: "'?'",
	ELVIS: "'?:'", ASSIGN: "'='", PLUSASSIGN: "'+='", MINUSASSIGN: "'-='",
	EQ: "'=='", NEQ: "'!='", LT: "'<'", GT: "'>'", LEQ: "'<='",
	GEQ: "'>='", ANDAND: "'&&'", OROR: "'||'", NOT: "'!'", PLUS: "'+'",
	MINUS: "'-'", STAR: "'*'", SLASH: "'/'", PERCENT: "'%'",
	INCR: "'++'", DECR: "'--'",
	KwDef: "'def'", KwIf: "'if'", KwElse: "'else'", KwReturn: "'return'",
	KwTrue: "'true'", KwFalse: "'false'", KwNull: "'null'",
	KwWhile: "'while'", KwFor: "'for'", KwIn: "'in'", KwNew: "'new'",
	KwPrivate: "'private'", KwPublic: "'public'", KwSwitch: "'switch'",
	KwCase: "'case'", KwDefault: "'default'", KwBreak: "'break'",
	KwContinue: "'continue'",
}

func (k TokKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("TokKind(%d)", int(k))
}

// keyword returns the kind of the keyword s, or IDENT.
func keyword(s string) TokKind {
	switch s {
	case "def":
		return KwDef
	case "if":
		return KwIf
	case "else":
		return KwElse
	case "return":
		return KwReturn
	case "true":
		return KwTrue
	case "false":
		return KwFalse
	case "null":
		return KwNull
	case "while":
		return KwWhile
	case "for":
		return KwFor
	case "in":
		return KwIn
	case "new":
		return KwNew
	case "private":
		return KwPrivate
	case "public":
		return KwPublic
	case "switch":
		return KwSwitch
	case "case":
		return KwCase
	case "default":
		return KwDefault
	case "break":
		return KwBreak
	case "continue":
		return KwContinue
	}
	return IDENT
}

// Pos is a source position (1-based line and column).
type Pos struct {
	Line int
	Col  int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// GPart is one segment of an interpolated (double-quoted) string: either
// literal text or an embedded expression source (the text between ${ and }
// or following a bare $).
type GPart struct {
	Text   string // literal text; empty if this part is an expression
	Expr   string // raw expression source; empty if this part is text
	IsExpr bool
}

// Token is a single lexeme with its source position. It is 48 bytes:
// a NUMBER's value and a GSTRING's interpolation parts live in side
// tables of the Lexer that produced the token (see Lexer.Num and
// Lexer.Parts), indexed by lit.
type Token struct {
	Kind TokKind
	// Text is the identifier name, operator, number literal or string
	// content. Identifier, operator and number text, and the text of a
	// string literal without escapes or non-ASCII bytes, is a slice of
	// the source.
	Text string
	Pos  Pos
	// lit indexes the lexer's side tables: the value of a NUMBER in
	// Lexer.nums, the first part of a GSTRING in Lexer.parts.
	lit int32
	// nparts is the number of interpolation parts of a GSTRING.
	nparts int32
}

func (t Token) String() string {
	switch t.Kind {
	case IDENT, NUMBER, STRING, GSTRING:
		return fmt.Sprintf("%s(%q)", t.Kind, t.Text)
	default:
		return t.Kind.String()
	}
}
