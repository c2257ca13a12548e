package groovy

import "testing"

// adversarialSrcs are inputs at the edges of the lexer: invalid UTF-8
// inside and outside literals, non-ASCII identifiers and digits, NUL
// bytes, escapes inside and outside ${…}, backslash-newline
// continuations, and unterminated strings, interpolations and
// comments. They seed FuzzParse and are pinned by the front-end digest
// (frontend_digest_test.go).
var adversarialSrcs = []string{
	"x = 'a\xffb\xc3' + 'c\xe2\x82'",
	"x = \"v\xfe${y}\xe2\x82 $z\xff\"",
	"x = \"${a\xff}\" + \"$a\xffb\" + \"$a.\xffb\"",
	"x \xff y \xc3\xa9",
	"x = 'h\u00e9llo' + \"w\u00f6rld $w\u00f6rld ${w\u00f6rld} \U0001F600\" + y",
	"def w\u00f6rld = 1\nw\u00f6rld.x(\u00e9t\u00e9: 2)",
	"x = \u0663\ny = 1\u0663\nz = 1.\u0663 + x\u0663",
	"a = 1\x00 b = 2",
	"x = 'a\x00b'",
	"x = \"a\x00b\"",
	"x = \"${a\x00}\"",
	"/* a \x00 */ b",
	"// x\x00\ny",
	"x = 'a\\\x00b'",
	"x = 'abc\\",
	"x = \"abc\\",
	"x = \"a\\n${b + \"\\t\"}\\$c $d \\\"q\\\"\"",
	"x = 'a\\'b\\\\c\\0d\\re'",
	"a \\ b",
	"a \\\n b\\\r\nc",
	"x = 'a\\\nb' + \"c\\\n$d\"",
	"x = 'abc",
	"x = \"abc",
	"x = 'abc\ndef'",
	"x = \"abc $",
	"x = \"${a",
	"x = \"${a\n b",
	"x = \"${a +\n b}\" + y",
	"/* abc",
	"/* a *",
	"x = \"$$a $.a $a. $a.b.c. ${} ${{}} $a.${b} $1\"",
	"x = 10L + 2.5f + 1. + 1..2 + 0x10 + 3d + 7G",
	"x = " + "12345678901234567890123456789012345678901234567890" +
		"12345678901234567890123456789012345678901234567890" +
		"12345678901234567890123456789012345678901234567890" +
		"12345678901234567890123456789012345678901234567890" +
		"12345678901234567890123456789012345678901234567890" +
		"12345678901234567890123456789012345678901234567890" +
		"12345678901234567890123456789012345678901234567890",
	"a & b | c @x # ` ~ ^",
	"a\r\n\tb\u00a0c",
	"x = '\u00e9' + y\ny = \"\u00e9$z\" + w",
	"x = ((((((((((((((((((((((((((((((1))))))))))))))))))))))))))))))",
	"x = [[[[[[[[[[[[[[[[1]]]]]]]]]]]]]]]] + !!!!!!!!-1",
	"x = \"${\"${\"${\"${a}\"}\"}\"}\"",
	"def h() { if (a) if (b) while (c) { d { e { f { g } } } } else if (x) y() else z() }",
}

// fuzzSeeds is the FuzzParse seed corpus.
var fuzzSeeds = append([]string{
	smokeAlarmSrc,
	waterLeakSrc,
	thermostatSrc,
	`def h(evt) { if (evt.value == "on") { sw.on() } }`,
	`preferences { section("s") { input "x", "capability.switch" } }`,
	`"$a${b.c()}" ?: [k: 1]`,
	"def h() { while (x < 10) { x++ } }",
	"mappings { path(\"/x\") { action: [GET: \"g\"] } }",
	"{ a -> a }",
	"/* unterminated",
	"\"unterminated $",
	"def h() { switch (x) { case 1: break; default: y() } }",
}, adversarialSrcs...)

// FuzzParse drives the lexer and parser with arbitrary input; the
// invariants are totality (no panic) and a File result even on
// malformed sources. Run with `go test -fuzz=FuzzParse ./internal/groovy`.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, _ := Parse("fuzz", src)
		if file == nil {
			t.Fatal("Parse returned nil File")
		}
		// The AST must be walkable without panicking.
		WalkFile(file, func(Node) bool { return true })
	})
}
