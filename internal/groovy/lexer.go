package groovy

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Lexer turns SmartThings-Groovy source text into a token stream.
// It strips // line comments and /* */ block comments, folds
// backslash-newline continuations, and emits NL tokens at newlines and
// semicolons so the parser can honour Groovy's newline-terminated
// statements and command-call argument lists.
//
// The subset's syntax is ASCII, so the lexer scans bytes: blanks,
// identifiers, numbers and operators go through byte loops, and their
// text is sliced from the source. UTF-8 is decoded only where a
// non-ASCII byte appears (a Unicode letter or digit, a comment) and in
// string literals; columns count runes. A string literal with an
// escape or a non-ASCII byte takes the decoding path, where each byte
// of invalid UTF-8 becomes U+FFFD (the source of a ${…} part is still
// scanned by bytes there, and only validated). Any other literal's
// text and interpolation parts are sliced from the source. Tokens
// fills one slice sized once from the source length; NUMBER values
// and GSTRING parts go to side tables read through Num and Parts. At
// most maxErrors lexical errors are recorded, and a bad character is
// skipped in a loop, not by recursion.
type Lexer struct {
	src    string
	off    int
	line   int
	col    int
	toks   []Token
	nums   []float64 // NUMBER values, indexed by Token.lit
	parts  []GPart   // GSTRING parts, Token.nparts of them from Token.lit
	errors []error
}

// maxPresize bounds the pre-sized token slice. Tokens sizes it at one
// token per 5 source bytes (market apps have 4.96 to 6.54; interpolation
// parts are short, hence the +4); a source longer than about
// 5×maxPresize bytes grows it by append instead, so one large source,
// or a chain of nested interpolation sub-parses, cannot reserve
// megabytes it does not use.
const maxPresize = 4096

// NewLexer returns a Lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// LexError describes a lexical error at a source position.
type LexError struct {
	Pos Pos
	Msg string
}

func (e *LexError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

func (l *Lexer) errorf(pos Pos, format string, args ...any) {
	if len(l.errors) < maxErrors {
		l.errors = append(l.errors, &LexError{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	}
}

// Errors returns the lexical errors encountered so far.
func (l *Lexer) Errors() []error { return l.errors }

// Num returns the value of a NUMBER token produced by l and whether it
// had no fractional part.
func (l *Lexer) Num(t Token) (v float64, isInt bool) {
	return l.nums[t.lit], strings.IndexByte(t.Text, '.') < 0
}

// Parts returns the interpolation parts of a GSTRING token produced by
// l.
func (l *Lexer) Parts(t Token) []GPart {
	return l.parts[t.lit : t.lit+t.nparts]
}

// byteAt returns the byte at i, or 0 past the end of the source.
func (l *Lexer) byteAt(i int) byte {
	if i < len(l.src) {
		return l.src[i]
	}
	return 0
}

// peek, peek2 and next step through the source a rune at a time. Only
// the decoding path for string literals uses them.
func (l *Lexer) peek() rune {
	if l.off >= len(l.src) {
		return 0
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.off:])
	return r
}

func (l *Lexer) peek2() rune {
	if l.off >= len(l.src) {
		return 0
	}
	_, w := utf8.DecodeRuneInString(l.src[l.off:])
	if l.off+w >= len(l.src) {
		return 0
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.off+w:])
	return r
}

func (l *Lexer) next() rune {
	if l.off >= len(l.src) {
		return 0
	}
	r, w := utf8.DecodeRuneInString(l.src[l.off:])
	l.off += w
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

// advanceTo moves the cursor to end, counting the lines and the
// columns (runes) in between.
func (l *Lexer) advanceTo(end int) {
	s := l.src[l.off:end]
	if nl := strings.LastIndexByte(s, '\n'); nl >= 0 {
		l.line += strings.Count(s, "\n")
		l.col = 1
		s = s[nl+1:]
	}
	l.col += utf8.RuneCountInString(s)
	l.off = end
}

func (l *Lexer) pos() Pos { return Pos{Line: l.line, Col: l.col} }

func isIdentStart(r rune) bool {
	return r == '_' || r == '$' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || r == '$' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// ASCII byte classes.
const (
	bIdentPart  = 1 << iota // letter, digit, '_' or '$'
	bIdentStart             // letter, '_' or '$'
	bLetter                 // letter or '_': starts an identifier token
	bDigit
)

var byteClass = func() (t [utf8.RuneSelf]uint8) {
	for c := 0; c < utf8.RuneSelf; c++ {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
			t[c] = bIdentPart | bIdentStart | bLetter
		case c == '$':
			t[c] = bIdentPart | bIdentStart
		case c >= '0' && c <= '9':
			t[c] = bIdentPart | bDigit
		}
	}
	return t
}()

// is reports whether b is an ASCII byte of class cls.
func is(b byte, cls uint8) bool { return b < utf8.RuneSelf && byteClass[b]&cls != 0 }

// Tokens lexes the entire input and returns the token stream, always
// terminated by an EOF token. Lexical errors are recorded (see Errors)
// and the offending characters skipped, so a best-effort stream is
// returned even for malformed input.
func (l *Lexer) Tokens() []Token {
	l.toks = make([]Token, 0, min(len(l.src)/5+4, maxPresize))
	for l.scan() {
	}
	return l.toks
}

func (l *Lexer) emit(k TokKind, text string, p Pos) {
	l.toks = append(l.toks, Token{Kind: k, Text: text, Pos: p})
}

// scan skips blanks, comments and continuations, lexes the next token
// (or skips an unexpected character) and reports whether to go on: it
// returns false once it has emitted EOF at the end of the input or at
// a NUL byte.
func (l *Lexer) scan() bool {
	src := l.src
	for l.off < len(src) {
		switch c := src[l.off]; c {
		case ' ', '\t', '\r':
			i := l.off + 1
			for i < len(src) && (src[i] == ' ' || src[i] == '\t' || src[i] == '\r') {
				i++
			}
			l.col += i - l.off
			l.off = i
		case '\n', ';':
			p := l.pos()
			l.off++
			if c == '\n' {
				l.line++
				l.col = 1
			} else {
				l.col++
			}
			// Collapse runs of NL into one.
			if n := len(l.toks); n == 0 || l.toks[n-1].Kind != NL {
				l.emit(NL, "", p)
			}
			return true
		case 0:
			l.emit(EOF, "", l.pos())
			return false
		case '\\':
			if l.byteAt(l.off+1) != '\n' {
				l.scanToken()
				return true
			}
			l.off += 2 // line continuation
			l.line++
			l.col = 1
		case '/':
			switch l.byteAt(l.off + 1) {
			case '/':
				l.skipLineComment()
			case '*':
				l.skipBlockComment()
			default:
				l.scanToken()
				return true
			}
		default:
			l.scanToken()
			return true
		}
	}
	l.emit(EOF, "", l.pos())
	return false
}

// skipLineComment skips to the end of the line or to a NUL byte.
func (l *Lexer) skipLineComment() {
	i := l.off
	for i < len(l.src) && l.src[i] != '\n' && l.src[i] != 0 {
		i++
	}
	l.advanceTo(i)
}

// skipBlockComment skips a /* */ comment. An unterminated comment runs
// to the end of the input or to a NUL byte.
func (l *Lexer) skipBlockComment() {
	p := l.pos()
	i := l.off + 2
	for i < len(l.src) && l.src[i] != 0 {
		if l.src[i] == '*' && l.byteAt(i+1) == '/' {
			l.advanceTo(i + 2)
			return
		}
		i++
	}
	l.advanceTo(i)
	l.errorf(p, "unterminated block comment")
}

func (l *Lexer) scanToken() {
	p := l.pos()
	c := l.src[l.off]
	switch {
	case c >= utf8.RuneSelf:
		l.scanNonASCII(p)
		return
	case is(c, bLetter):
		l.scanIdent(p)
		return
	case is(c, bDigit):
		l.scanNumber(p)
		return
	case c == '\'':
		l.scanString(p)
		return
	case c == '"':
		l.scanGString(p)
		return
	}
	k, n := operator(c, l.byteAt(l.off+1))
	if k == EOF {
		switch c {
		case '&', '|':
			l.errorf(p, "unexpected '%c'", c)
		default:
			l.errorf(p, "unexpected character %q", rune(c))
		}
		l.off++
		l.col++
		return
	}
	l.emit(k, l.src[l.off:l.off+n], p)
	l.off += n
	l.col += n
}

// scanNonASCII lexes the token that starts with a non-ASCII rune: an
// identifier that starts with a Unicode letter, or a number that starts
// with a Unicode digit (which does not parse).
func (l *Lexer) scanNonASCII(p Pos) {
	r, w := utf8.DecodeRuneInString(l.src[l.off:])
	switch {
	case unicode.IsLetter(r):
		l.scanIdent(p)
	case unicode.IsDigit(r):
		l.scanNumber(p)
	default:
		l.errorf(p, "unexpected character %q", r)
		l.off += w
		l.col++
	}
}

// operator classifies the punctuation or operator that starts with c
// followed by d, returning its kind and length in bytes, or EOF if c
// starts none.
func operator(c, d byte) (TokKind, int) {
	switch c {
	case '(':
		return LPAREN, 1
	case ')':
		return RPAREN, 1
	case '{':
		return LBRACE, 1
	case '}':
		return RBRACE, 1
	case '[':
		return LBRACKET, 1
	case ']':
		return RBRACKET, 1
	case ',':
		return COMMA, 1
	case ':':
		return COLON, 1
	case '.':
		return DOT, 1
	case '?':
		switch d {
		case ':':
			return ELVIS, 2
		case '.':
			return SAFEDOT, 2
		}
		return QUESTION, 1
	case '=':
		if d == '=' {
			return EQ, 2
		}
		return ASSIGN, 1
	case '!':
		if d == '=' {
			return NEQ, 2
		}
		return NOT, 1
	case '<':
		if d == '=' {
			return LEQ, 2
		}
		return LT, 1
	case '>':
		if d == '=' {
			return GEQ, 2
		}
		return GT, 1
	case '&':
		if d == '&' {
			return ANDAND, 2
		}
	case '|':
		if d == '|' {
			return OROR, 2
		}
	case '+':
		switch d {
		case '+':
			return INCR, 2
		case '=':
			return PLUSASSIGN, 2
		}
		return PLUS, 1
	case '-':
		switch d {
		case '-':
			return DECR, 2
		case '=':
			return MINUSASSIGN, 2
		case '>':
			return ARROW, 2
		}
		return MINUS, 1
	case '*':
		return STAR, 1
	case '/':
		return SLASH, 1
	case '%':
		return PERCENT, 1
	}
	return EOF, 0
}

// run advances over ASCII bytes of class cls and over non-ASCII runes
// that match the Unicode predicate uni.
func (l *Lexer) run(cls uint8, uni func(rune) bool) {
	src := l.src
	for {
		i := l.off
		for i < len(src) && is(src[i], cls) {
			i++
		}
		l.col += i - l.off
		l.off = i
		if i == len(src) || src[i] < utf8.RuneSelf || !l.acceptRune(uni) {
			return
		}
	}
}

// acceptRune advances over the non-ASCII rune at the cursor if it
// matches uni.
func (l *Lexer) acceptRune(uni func(rune) bool) bool {
	r, w := utf8.DecodeRuneInString(l.src[l.off:])
	if !uni(r) {
		return false
	}
	l.off += w
	l.col++
	return true
}

func (l *Lexer) scanIdent(p Pos) {
	start := l.off
	l.run(bIdentPart, isIdentPart)
	name := l.src[start:l.off]
	l.emit(keyword(name), name, p)
}

// digitAt reports whether a (Unicode) digit starts at i.
func (l *Lexer) digitAt(i int) bool {
	if i >= len(l.src) {
		return false
	}
	if c := l.src[i]; c < utf8.RuneSelf {
		return is(c, bDigit)
	}
	r, _ := utf8.DecodeRuneInString(l.src[i:])
	return unicode.IsDigit(r)
}

func (l *Lexer) scanNumber(p Pos) {
	start := l.off
	l.run(bDigit, unicode.IsDigit)
	if l.byteAt(l.off) == '.' && l.digitAt(l.off+1) {
		l.off++
		l.col++
		l.run(bDigit, unicode.IsDigit)
	}
	text := l.src[start:l.off]
	// Trailing type suffixes (Groovy's 10L, 2.5f, 3d) are accepted and
	// ignored; they do not affect the analysis.
	switch l.byteAt(l.off) {
	case 'L', 'l', 'f', 'F', 'd', 'D', 'g', 'G', 'i', 'I':
		l.off++
		l.col++
	}
	v, err := strconv.ParseFloat(text, 64)
	if err != nil {
		l.errorf(p, "bad number %q", text)
	}
	l.nums = append(l.nums, v)
	l.toks = append(l.toks, Token{Kind: NUMBER, Text: text, Pos: p, lit: int32(len(l.nums) - 1)})
}

// scanString lexes a single-quoted string. Its text is sliced from the
// source unless it holds an escape or a non-ASCII byte.
func (l *Lexer) scanString(p Pos) {
	start := l.off + 1
	for i := start; ; i++ {
		switch c := l.byteAt(i); {
		case c == '\'':
			l.emit(STRING, l.src[start:i], p)
			l.col += i + 1 - l.off
			l.off = i + 1
			return
		case c == '\n' || c == 0: // a newline, a NUL byte or the end of input
			l.errorf(p, "unterminated string")
			l.emit(STRING, l.src[start:i], p)
			l.col += i - l.off
			l.off = i
			return
		case c == '\\' || c >= utf8.RuneSelf:
			l.decodeString(p)
			return
		}
	}
}

// decodeString lexes a single-quoted string rune by rune, resolving
// escapes; invalid UTF-8 becomes U+FFFD.
func (l *Lexer) decodeString(p Pos) {
	l.next() // opening quote
	var sb strings.Builder
	for {
		r := l.peek()
		if r == 0 || r == '\n' {
			l.errorf(p, "unterminated string")
			break
		}
		l.next()
		if r == '\'' {
			break
		}
		if r == '\\' {
			sb.WriteRune(l.unescape(l.next()))
			continue
		}
		sb.WriteRune(r)
	}
	l.emit(STRING, sb.String(), p)
}

func (l *Lexer) unescape(r rune) rune {
	switch r {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	case '0':
		return 0
	default:
		return r // \", \', \\, \$ and anything else map to themselves
	}
}

// scanGString lexes a double-quoted string, splitting it into literal
// text and interpolation parts. Two interpolation forms are supported,
// matching Groovy: ${expr} with arbitrary nesting of braces, and the
// bare $ident(.ident)* path form. Escapes are resolved in literal text
// but not inside ${…}.
func (l *Lexer) scanGString(p Pos) {
	if l.parts == nil {
		// Market apps have one part per 62 source bytes.
		l.parts = make([]GPart, 0, (len(l.src)-l.off)/32+4)
	}
	if !l.sliceGString(p) {
		l.decodeGString(p)
	}
}

// sliceGString lexes a double-quoted string whose text and
// interpolation parts can be sliced from the source: one with no
// escape in its literal text and no non-ASCII byte anywhere. It
// reports false, having consumed nothing, for any other string.
func (l *Lexer) sliceGString(p Pos) bool {
	src := l.src
	mark := len(l.parts)
	start := l.off + 1
	seg := start // start of the pending literal-text part
	flush := func(end int) {
		if end > seg {
			l.parts = append(l.parts, GPart{Text: src[seg:end]})
		}
	}
	bail := func() bool {
		l.parts = l.parts[:mark]
		return false
	}
	i := start
	text := ""
scan:
	for {
		c := l.byteAt(i)
		switch {
		case c == '"':
			flush(i)
			text = src[start:i]
			i++
			break scan
		case c == '\n' || c == 0:
			flush(i)
			text = src[start:i]
			l.errorf(p, "unterminated string")
			break scan
		case c == '\\' || c >= utf8.RuneSelf:
			return bail()
		case c != '$':
			i++
		case l.byteAt(i+1) == '{':
			flush(i)
			end, closed, ascii := l.braceEnd(i + 2)
			if !ascii {
				return bail()
			}
			l.parts = append(l.parts, GPart{Expr: src[i+2 : end], IsExpr: true})
			if !closed {
				// The string ends with the input or at a NUL byte; its
				// text closes the interpolation it could not find.
				l.errorf(p, "unterminated interpolation")
				l.errorf(p, "unterminated string")
				text = src[start:end] + "}"
				i = end
				break scan
			}
			i, seg = end+1, end+1
		case is(l.byteAt(i+1), bIdentStart):
			flush(i)
			j := i + 1
			for {
				for is(l.byteAt(j), bIdentPart) {
					j++
				}
				// Dotted path: $evt.value
				if l.byteAt(j) != '.' || !is(l.byteAt(j+1), bIdentStart) {
					break
				}
				j++
			}
			if l.byteAt(j) >= utf8.RuneSelf || l.byteAt(j) == '.' && l.byteAt(j+1) >= utf8.RuneSelf {
				return bail() // the path may go on with a non-ASCII letter
			}
			l.parts = append(l.parts, GPart{Expr: src[i+1 : j], IsExpr: true})
			i, seg = j, j
		case l.byteAt(i+1) >= utf8.RuneSelf:
			return bail()
		default:
			i++ // a bare '$' is literal text
		}
	}
	l.toks = append(l.toks, Token{Kind: GSTRING, Text: text, Pos: p,
		lit: int32(mark), nparts: int32(len(l.parts) - mark)})
	l.advanceTo(i)
	return true
}

// braceEnd scans the source of a ${…} interpolation from i, just after
// the "${", to the '}' that closes it, counting nested braces. It
// returns that brace's offset, or the offset of the NUL byte or the
// end of the input that cut the interpolation short (closed false),
// and whether the bytes in between are all ASCII.
func (l *Lexer) braceEnd(i int) (end int, closed, ascii bool) {
	depth, ascii := 1, true
	for ; i < len(l.src); i++ {
		switch c := l.src[i]; {
		case c == 0:
			return i, false, ascii
		case c >= utf8.RuneSelf:
			ascii = false
		case c == '{':
			depth++
		case c == '}':
			if depth--; depth == 0 {
				return i, true, ascii
			}
		}
	}
	return i, false, ascii
}

// decodeGString lexes a double-quoted string rune by rune, resolving
// escapes in its literal text; invalid UTF-8 becomes U+FFFD.
func (l *Lexer) decodeGString(p Pos) {
	l.next() // opening quote
	mark := len(l.parts)
	var text strings.Builder
	flushText := func() {
		if text.Len() > 0 {
			l.parts = append(l.parts, GPart{Text: text.String()})
			text.Reset()
		}
	}
	var full strings.Builder
	for {
		r := l.peek()
		if r == 0 || r == '\n' {
			l.errorf(p, "unterminated string")
			break
		}
		if r == '"' {
			l.next()
			break
		}
		if r == '\\' {
			l.next()
			e := l.unescape(l.next())
			text.WriteRune(e)
			full.WriteRune(e)
			continue
		}
		if r == '$' {
			l.next()
			if l.peek() == '{' {
				l.next()
				end, closed, ascii := l.braceEnd(l.off)
				expr := l.src[l.off:end]
				if !ascii {
					expr = validUTF8(expr)
				}
				l.advanceTo(end)
				if closed {
					l.next()
				} else {
					l.errorf(p, "unterminated interpolation")
				}
				flushText()
				l.parts = append(l.parts, GPart{Expr: expr, IsExpr: true})
				full.WriteString("${")
				full.WriteString(expr)
				full.WriteString("}")
				continue
			}
			if isIdentStart(l.peek()) {
				var expr strings.Builder
				for isIdentPart(l.peek()) {
					expr.WriteRune(l.next())
				}
				// Dotted path: $evt.value
				for l.peek() == '.' && isIdentStart(l.peek2()) {
					expr.WriteRune(l.next())
					for isIdentPart(l.peek()) {
						expr.WriteRune(l.next())
					}
				}
				flushText()
				l.parts = append(l.parts, GPart{Expr: expr.String(), IsExpr: true})
				full.WriteString("$" + expr.String())
				continue
			}
			text.WriteRune('$')
			full.WriteRune('$')
			continue
		}
		l.next()
		text.WriteRune(r)
		full.WriteRune(r)
	}
	flushText()
	l.toks = append(l.toks, Token{Kind: GSTRING, Text: full.String(), Pos: p,
		lit: int32(mark), nparts: int32(len(l.parts) - mark)})
}

// validUTF8 returns s with each byte that does not start a valid UTF-8
// sequence replaced by U+FFFD, as decoding s rune by rune would.
func validUTF8(s string) string {
	if utf8.ValidString(s) {
		return s
	}
	var sb strings.Builder
	sb.Grow(len(s))
	for _, r := range s {
		sb.WriteRune(r)
	}
	return sb.String()
}
