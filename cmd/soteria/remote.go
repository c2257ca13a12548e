package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/soteria-analysis/soteria/internal/client"
	"github.com/soteria-analysis/soteria/internal/report"
)

// remoteRun is a -remote invocation's parameters.
type remoteRun struct {
	baseURL       string
	idemKey       string
	paths         []string
	general       bool
	specific      bool
	taint         bool
	properties    []string
	timeout       time.Duration
	maxStates     int
	jsonOut       bool
	explainTiming bool
}

// runRemote submits the apps to a soteriad instance through the
// resilient client and renders the returned record with the same exit
// codes as a local run.
func runRemote(run remoteRun) int {
	var apps []client.App
	for _, path := range run.paths {
		src, err := os.ReadFile(path)
		if err != nil {
			fail("reading %s: %v", path, err)
		}
		apps = append(apps, client.App{Name: filepath.Base(path), Source: string(src)})
	}

	opts := &client.Options{MaxStates: run.maxStates, Properties: run.properties}
	if run.general || run.specific || run.taint {
		// Family flags combine: naming any of them checks exactly the
		// named families (same semantics as a local run).
		opts.General = &run.general
		opts.AppSpecific = &run.specific
		opts.Taint = &run.taint
	}
	if run.timeout > 0 {
		opts.TimeoutMS = run.timeout.Milliseconds()
	}

	c, err := client.New(client.Config{BaseURL: run.baseURL})
	if err != nil {
		fail("%v", err)
	}
	ctx := context.Background()
	if run.timeout > 0 {
		// The request deadline leaves headroom over the analysis budget
		// for queueing and transport.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, run.timeout+30*time.Second)
		defer cancel()
	}

	j, err := c.Analyze(ctx, client.AnalyzeRequest{
		Apps:           apps,
		Options:        opts,
		IdempotencyKey: run.idemKey,
		Timings:        run.explainTiming,
	})
	if err != nil {
		fail("remote analysis: %v", err)
	}
	if !j.Terminal() {
		// A sync submission normally returns terminal; a poll handle can
		// still surface (e.g. the submitting connection broke and the
		// retry raced the job) — follow it.
		if j, err = c.Wait(ctx, j.JobID); err != nil {
			fail("remote analysis: polling job %s: %v", j.JobID, err)
		}
	}
	if j.Status == "failed" || j.Result == nil {
		fail("remote analysis: job %s %s: %s", j.JobID, j.Status, j.Error)
	}
	if run.explainTiming {
		renderTiming(j.Result.Timing, j.Trace)
	}
	return renderRecord(j.Result, j.Cached, run.jsonOut)
}

// renderTiming prints the daemon-recorded span tree to stderr, with
// the trace ID operators can grep in the daemon's logs.
func renderTiming(t *report.Timing, trace string) {
	if t == nil || t.Span == nil {
		fmt.Fprintln(os.Stderr, "timing: not returned by the daemon (cached result from an older daemon?)")
		return
	}
	if trace == "" {
		trace = t.TraceID
	}
	fmt.Fprintf(os.Stderr, "timing (trace %s):\n", trace)
	var walk func(sp *report.TimedSpan, depth int)
	walk = func(sp *report.TimedSpan, depth int) {
		fmt.Fprintf(os.Stderr, "%*s%s %s", depth*2+2, "", sp.Name, time.Duration(sp.DurationUS)*time.Microsecond)
		for _, a := range sp.Attrs {
			fmt.Fprintf(os.Stderr, " %s=%s", a.Key, a.Value)
		}
		fmt.Fprintln(os.Stderr)
		for _, ch := range sp.Children {
			walk(ch, depth+1)
		}
	}
	walk(t.Span, 0)
}

// renderRecord prints a stored record and maps it to the documented
// exit codes (incomplete over violations, like a local run).
func renderRecord(rec *report.Record, cached bool, jsonOut bool) int {
	code := 0
	switch {
	case rec.Incomplete:
		code = 3
	case len(rec.Violations) > 0:
		code = 1
	}
	if jsonOut {
		data, err := report.Encode(rec)
		if err != nil {
			fail("json: %v", err)
		}
		var buf bytes.Buffer
		if err := json.Indent(&buf, data, "", "  "); err != nil {
			fail("json: %v", err)
		}
		fmt.Println(buf.String())
		return code
	}
	fmt.Printf("model: %d states (%d before reduction), %d transitions\n",
		rec.States, rec.StatesBeforeReduction, rec.Transitions)
	if cached {
		fmt.Println("served from the daemon's result store (cached)")
	}
	if len(rec.Violations) == 0 {
		fmt.Println("no property violations found")
	}
	for _, v := range rec.Violations {
		fmt.Printf("VIOLATION %s [%s]: %s\n  %s\n", v.ID, v.Kind, v.Description, v.Detail)
		// Taint witnesses render in full in the flow section below.
		if v.Counterexample != "" && v.Kind != "taint" {
			fmt.Printf("  counterexample: %s\n", v.Counterexample)
		}
	}
	for _, f := range rec.TaintFlows {
		fmt.Printf("TAINT FLOW %s [%s]: %s -> %s (%s channel, line %d)\n",
			f.ID, f.App, f.Source, f.Sink, f.Channel, f.Line)
		for _, step := range f.Witness {
			fmt.Printf("  %s\n", step)
		}
	}
	if rec.Incomplete {
		fmt.Println("ANALYSIS INCOMPLETE:")
		for _, d := range rec.Diagnostics {
			fmt.Printf("  %s: %s\n", d.Stage, d.Message)
		}
	}
	return code
}
