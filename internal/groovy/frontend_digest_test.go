package groovy_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"maps"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/soteria-analysis/soteria/internal/groovy"
	"github.com/soteria-analysis/soteria/internal/ir"
	"github.com/soteria-analysis/soteria/internal/maliot"
	"github.com/soteria-analysis/soteria/internal/market"
	"github.com/soteria-analysis/soteria/internal/paperapps"
)

// frontendDigest is the SHA-256 of the canonical front-end dump below.
// It pins every observable of lexing and parsing — each token's kind,
// text and position, the lexer errors, the AST, the IR and the joined
// Parse error — so a rewrite of the lexer or parser must reproduce the
// previous front end byte for byte. The token dump reads only Kind,
// Text and Pos, so it does not depend on the Token layout. Only change
// the digest together with a deliberate, reviewed change to front-end
// output.
const frontendDigest = "ae70df2fc676ff223b19904bdc70114b6e217b381ff7077c1b35c90f242d542b"

// TestFrontendDigest lexes, parses and builds the IR of the market
// corpus, the MalIoT suite, the paper apps and the FuzzParse seeds
// (which include the adversarial inputs), and compares the digest of
// the dump with the pinned one.
func TestFrontendDigest(t *testing.T) {
	h := sha256.New()
	for _, a := range market.All() {
		dumpFrontend(h, "market/"+a.ID, a.Source)
	}
	for _, a := range maliot.Suite() {
		dumpFrontend(h, "maliot/"+a.ID, a.Source)
	}
	for _, a := range paperapps.Corpus() {
		dumpFrontend(h, "paper/"+a.Name, a.Source)
	}
	for i, src := range groovy.FuzzSeeds {
		dumpFrontend(h, fmt.Sprintf("seed/%d", i), src)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != frontendDigest {
		t.Fatalf("front-end dump digest = %s, want %s", got, frontendDigest)
	}
}

func dumpFrontend(w io.Writer, name, src string) {
	fmt.Fprintf(w, "== %s\n-- tokens\n", name)
	lx := groovy.NewLexer(src)
	for _, tok := range lx.Tokens() {
		fmt.Fprintf(w, "%d %s %q %d:%d\n", int(tok.Kind), tok.Kind, tok.Text, tok.Pos.Line, tok.Pos.Col)
	}
	for _, err := range lx.Errors() {
		fmt.Fprintf(w, "lexerr %s\n", err)
	}
	f, err := groovy.Parse(name, src)
	fmt.Fprintf(w, "-- parse error\n%v\n", err)
	d := &dumper{w: w, seen: map[uintptr]int{}}
	io.WriteString(w, "-- ast\n")
	d.dump(reflect.ValueOf(f))
	io.WriteString(w, "\n-- ir\n")
	d.dump(reflect.ValueOf(ir.Build(f)))
	io.WriteString(w, "\n")
}

// dumper writes a canonical rendering of a value graph: struct fields
// in declaration order, map entries sorted by their rendering, and a
// pointer seen before as a back-reference to its first rendering. Map
// entries are rendered against a copy of the seen set, so iteration
// order cannot change the back-references.
type dumper struct {
	w    io.Writer
	seen map[uintptr]int
}

func (d *dumper) dump(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			io.WriteString(d.w, "nil")
			return
		}
		if id, ok := d.seen[v.Pointer()]; ok {
			fmt.Fprintf(d.w, "@%d", id)
			return
		}
		d.seen[v.Pointer()] = len(d.seen)
		fmt.Fprintf(d.w, "&%d", len(d.seen)-1)
		d.dump(v.Elem())
	case reflect.Interface:
		if v.IsNil() {
			io.WriteString(d.w, "nil")
			return
		}
		d.dump(v.Elem())
	case reflect.Struct:
		fmt.Fprintf(d.w, "%s{", v.Type())
		for i := 0; i < v.NumField(); i++ {
			fmt.Fprintf(d.w, "%s:", v.Type().Field(i).Name)
			d.dump(v.Field(i))
			io.WriteString(d.w, " ")
		}
		io.WriteString(d.w, "}")
	case reflect.Slice, reflect.Array:
		fmt.Fprintf(d.w, "[%d:", v.Len())
		for i := 0; i < v.Len(); i++ {
			d.dump(v.Index(i))
			io.WriteString(d.w, ",")
		}
		io.WriteString(d.w, "]")
	case reflect.Map:
		entries := make([]string, 0, v.Len())
		for it := v.MapRange(); it.Next(); {
			var sb strings.Builder
			sub := &dumper{w: &sb, seen: maps.Clone(d.seen)}
			sub.dump(it.Key())
			sb.WriteString("=>")
			sub.dump(it.Value())
			entries = append(entries, sb.String())
		}
		sort.Strings(entries)
		fmt.Fprintf(d.w, "map[%d:%s]", len(entries), strings.Join(entries, ","))
	case reflect.String:
		io.WriteString(d.w, strconv.Quote(v.String()))
	case reflect.Bool:
		io.WriteString(d.w, strconv.FormatBool(v.Bool()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		io.WriteString(d.w, strconv.FormatInt(v.Int(), 10))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		io.WriteString(d.w, strconv.FormatUint(v.Uint(), 10))
	case reflect.Float32, reflect.Float64:
		io.WriteString(d.w, strconv.FormatFloat(v.Float(), 'g', -1, 64))
	default:
		fmt.Fprintf(d.w, "<%s>", v.Kind())
	}
}
