// Command soteria analyzes SmartThings IoT apps for safety and
// security property violations.
//
// Usage:
//
//	soteria [flags] app.groovy [app2.groovy ...]
//
// With several files the apps are analyzed together as one environment
// (the paper's multi-app analysis). The family flags (-general,
// -specific, -taint) combine: naming any of them checks exactly the
// named families. Flags:
//
//	-ir        print each app's intermediate representation
//	-dot       print the state model in Graphviz format
//	-smv       print the model in NuSMV input format
//	-formula F additionally check the CTL formula F
//	-engine E  CTL backend for -formula: explicit (default), bdd, bmc
//	-ltl F     additionally check the LTL formula F over all paths
//	-witness F produce a trace demonstrating an existential formula
//	-general   check only the general properties (S.1–S.5)
//	-specific  check only the app-specific properties (P.1–P.30)
//	-taint     check only the taint properties (T.1–T.6)
//	-properties IDs check only the listed property IDs (comma-separated,
//	           e.g. "P.10,T.2"; "T.*" selects the whole taint family)
//	-timeout D abort the analysis after the wall-clock duration D
//	-max-states N cap state-model enumeration at N states
//	-json      emit the analysis result as JSON
//	-list      list the property catalogue and exit
//	-remote URL analyze via a soteriad instance instead of locally
//	-idempotency-key K dedupe key for -remote resubmissions
//	-explain-timing print the analysis span tree (where the time went)
//
// -explain-timing prints a per-phase timing tree to stderr: parse →
// state model → Kripke structure → property checks, with one line per
// property naming its engine and verdict.
// Locally the tree is recorded in-process; with -remote the daemon
// embeds its span tree (and the job's trace ID) in the response.
//
// With -remote the apps are submitted to a running soteriad over its
// HTTP API through the resilient client: transient failures retry with
// backoff honoring Retry-After, and an idempotency key (auto-generated
// unless -idempotency-key is given) keeps retries from analyzing
// twice — even across a daemon crash and restart. The model/trace
// flags (-ir, -dot, -smv, -formula, -ltl, -witness) are local-only.
//
// Exit codes: 0 — analysis complete, no violations; 1 — violations
// found; 2 — usage or input errors; 3 — analysis incomplete (resource
// budget exhausted or an internal fault was contained).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/soteria-analysis/soteria"
	"github.com/soteria-analysis/soteria/internal/obs"
)

func main() {
	var (
		showIR    = flag.Bool("ir", false, "print each app's intermediate representation")
		showDot   = flag.Bool("dot", false, "print the state model in Graphviz format")
		showSMV   = flag.Bool("smv", false, "print the model in NuSMV format")
		formula   = flag.String("formula", "", "additionally check this CTL formula")
		engine    = flag.String("engine", "explicit", "model-checking engine: explicit, bdd, or bmc")
		witness   = flag.String("witness", "", "produce a trace demonstrating this existential CTL formula (EX/EF/EU/EG)")
		ltlProp   = flag.String("ltl", "", "additionally check this LTL formula (G/F/X/U/R) over all paths")
		general   = flag.Bool("general", false, "check only general properties (S.1-S.5)")
		specific  = flag.Bool("specific", false, "check only app-specific properties (P.1-P.30)")
		taintOnly = flag.Bool("taint", false, "check only taint properties (T.1-T.6)")
		propIDs   = flag.String("properties", "", "check only these comma-separated property IDs (e.g. \"P.10,T.2\"; \"T.*\" selects the taint family)")
		list      = flag.Bool("list", false, "list the property catalogue and exit")
		jsonOut   = flag.Bool("json", false, "emit the analysis result as JSON")
		timeout   = flag.Duration("timeout", 0, "abort the analysis after this wall-clock duration (0 = no limit)")
		maxStates = flag.Int("max-states", 0, "cap state-model enumeration at this many states (0 = no limit)")
		remote    = flag.String("remote", "", "analyze via the soteriad instance at this base URL instead of locally")
		idemKey   = flag.String("idempotency-key", "", "idempotency key for -remote submissions (default: auto-generated)")
		explain   = flag.Bool("explain-timing", false, "print the analysis span tree (phase and engine timings) to stderr")
	)
	flag.Parse()

	if *list {
		ids := soteria.PropertyIDs()
		var keys []string
		for id := range ids {
			keys = append(keys, id)
		}
		sort.Slice(keys, func(i, j int) bool {
			return num(keys[i]) < num(keys[j])
		})
		for _, id := range keys {
			fmt.Printf("%-5s %s\n", id, ids[id])
		}
		return
	}

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: soteria [flags] app.groovy [app2.groovy ...]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	if *remote != "" {
		if *showIR || *showDot || *showSMV || *formula != "" || *ltlProp != "" || *witness != "" {
			fail("-ir, -dot, -smv, -formula, -ltl, and -witness are local-only (not with -remote)")
		}
		os.Exit(runRemote(remoteRun{
			baseURL:       *remote,
			idemKey:       *idemKey,
			paths:         flag.Args(),
			general:       *general,
			specific:      *specific,
			taint:         *taintOnly,
			properties:    splitIDs(*propIDs),
			timeout:       *timeout,
			maxStates:     *maxStates,
			jsonOut:       *jsonOut,
			explainTiming: *explain,
		}))
	}

	var apps []*soteria.App
	for _, path := range flag.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			fail("reading %s: %v", path, err)
		}
		name := filepath.Base(path)
		app, err := soteria.ParseApp(name, string(src))
		if err != nil {
			fail("parsing %s: %v", path, err)
		}
		for _, w := range app.Warnings() {
			fmt.Fprintf(os.Stderr, "warning: %s: %s\n", name, w)
		}
		if *showIR {
			fmt.Println(app.IR())
		}
		apps = append(apps, app)
	}

	var opts []soteria.Option
	if *general || *specific || *taintOnly {
		opts = append(opts, soteria.WithChecks(*general, *specific, *taintOnly))
	}
	if ids := splitIDs(*propIDs); len(ids) > 0 {
		opts = append(opts, soteria.WithProperties(ids...))
	}
	if *timeout > 0 || *maxStates > 0 {
		opts = append(opts, soteria.WithLimits(soteria.Limits{
			Timeout:   *timeout,
			MaxStates: *maxStates,
		}))
	}

	ctx := context.Background()
	var root *obs.Span
	if *explain {
		root = obs.NewRoot("analysis")
		ctx = obs.WithSpan(ctx, root)
	}
	res, err := soteria.AnalyzeEnvironmentContext(ctx, apps, opts...)
	if err != nil {
		fail("analysis: %v", err)
	}
	if root != nil {
		root.End()
		fmt.Fprintf(os.Stderr, "timing:\n%s", root.Render())
	}

	if *jsonOut {
		// The schema-versioned canonical record — the same bytes
		// soteriad stores and serves, re-indented for the terminal.
		data, err := res.JSON()
		if err != nil {
			fail("json: %v", err)
		}
		var buf bytes.Buffer
		if err := json.Indent(&buf, data, "", "  "); err != nil {
			fail("json: %v", err)
		}
		fmt.Println(buf.String())
		os.Exit(exitCode(res))
	}

	fmt.Printf("model: %d states (%d before reduction), %d transitions\n",
		res.States, res.StatesBeforeReduction, res.Transitions)

	if *showDot {
		fmt.Println(res.DOT())
	}
	if *showSMV {
		fmt.Println(res.SMV())
	}

	if len(res.Violations) == 0 {
		fmt.Println("no property violations found")
	}
	for _, v := range res.Violations {
		fmt.Printf("VIOLATION %s [%s]: %s\n  %s\n", v.ID, v.Kind, v.Description, v.Detail)
		// Taint witnesses render in full in the flow section below.
		if v.Counterexample != "" && v.Kind != soteria.TaintViolation {
			fmt.Printf("  counterexample: %s\n", v.Counterexample)
		}
	}
	for _, f := range res.TaintFlows {
		fmt.Printf("TAINT FLOW %s [%s]: %s -> %s (%s channel, line %d)\n",
			f.ID, f.App, f.Source, f.Sink, f.Channel, f.Line)
		for _, step := range f.Witness {
			fmt.Printf("  %s\n", step)
		}
	}

	if *formula != "" {
		holds, cex, err := res.CheckFormulaEngine(*formula, soteria.Engine(*engine))
		if err != nil {
			fail("formula: %v", err)
		}
		if holds {
			fmt.Printf("FORMULA HOLDS: %s\n", *formula)
		} else {
			fmt.Printf("FORMULA FAILS: %s\n", *formula)
			if cex != "" {
				fmt.Printf("  counterexample: %s\n", cex)
			}
		}
	}

	if *ltlProp != "" {
		holds, cex, err := res.CheckLTL(*ltlProp)
		if err != nil {
			fail("ltl: %v", err)
		}
		if holds {
			fmt.Printf("LTL HOLDS: %s\n", *ltlProp)
		} else {
			fmt.Printf("LTL FAILS: %s\n", *ltlProp)
			if cex != "" {
				fmt.Printf("  lasso counterexample: %s\n", cex)
			}
		}
	}

	if *witness != "" {
		trace, ok, err := res.WitnessFormula(*witness)
		if err != nil {
			fail("witness: %v", err)
		}
		if ok {
			fmt.Printf("WITNESS for %s:\n%s\n", *witness, trace)
		} else {
			fmt.Printf("NO WITNESS: %s is unsatisfiable on this model (or not existential)\n", *witness)
		}
	}

	if res.Incomplete {
		fmt.Println("ANALYSIS INCOMPLETE:")
		for _, d := range res.Diagnostics {
			fmt.Printf("  %s\n", d)
		}
	}

	os.Exit(exitCode(res))
}

// exitCode maps a result to the documented exit codes: incomplete
// analyses take precedence over violations — a partial verdict must
// not be mistaken for a clean or fully-checked run.
func exitCode(res *soteria.Result) int {
	switch {
	case res.Incomplete:
		return 3
	case len(res.Violations) > 0:
		return 1
	}
	return 0
}

// splitIDs parses a comma-separated -properties value, trimming blanks.
func splitIDs(s string) []string {
	var ids []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			ids = append(ids, part)
		}
	}
	return ids
}

func num(id string) int {
	n := 0
	for _, r := range id {
		if r >= '0' && r <= '9' {
			n = n*10 + int(r-'0')
		}
	}
	return n
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "soteria: "+format+"\n", args...)
	os.Exit(2)
}
