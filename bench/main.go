// Command bench is Soteria's end-to-end benchmark. It runs one
// workload for a fixed time, checks every verdict it gets back against
// the frozen reference in testdata/verdicts.json, and prints each
// metric as a "workload metric value unit" line followed by one JSON
// result line.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// run.sh builds soteriad and this program into .bench_build/ first.
// With --trace 0 the end-to-end metrics are printed; with --trace 1 a
// separate traced run records spans around each layer's public entry
// point and prints the per-layer metrics, writing the spans as JSONL
// under --out. See README.md for the workloads and the metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// soteriad is the daemon binary the serve workloads start.
	soteriad string
	// work holds daemon state (store, journal, log) while a run lasts.
	work string
	// out receives <workload>.json and, when tracing, <workload>.spans.jsonl.
	out string
	// rateScale multiplies the serve workloads' arrival rates.
	rateScale float64
	// conns is the load generator's keep-alive connection count: one
	// per CPU.
	conns int
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one slow start (cold page cache, first GC) does not set it.
const setupReps = 5

// metricDef names one metric and its unit, as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported on every
// workload. The latency tail is not among them: README.md gives the
// run-to-run spread that keeps it out.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"items_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"cpu_ms_per_item", "ms"},
	{"peak_rss_mb", "MB"},
}

// tailLayers are the latency tail of a traced run, on every workload.
var tailLayers = []metricDef{
	{"item.p90_ms", "ms"},
	{"item.p99_ms", "ms"},
}

// auditLayers are the per-layer metrics of a traced audit run; they
// read 0 on the serve workloads, whose analyzer runs inside soteriad.
var auditLayers = []metricDef{
	{"ir.self_ms", "ms"},
	{"ir.allocs", "count"},
	{"statemodel.self_ms", "ms"},
	{"statemodel.allocs", "count"},
	{"statemodel.states", "count"},
	{"statemodel.us_per_state", "us"},
	{"kripke.self_ms", "ms"},
	{"kripke.allocs", "count"},
	{"properties.general_ms", "ms"},
	{"properties.sweep_ms", "ms"},
	{"modelcheck.self_ms", "ms"},
	{"modelcheck.allocs", "count"},
	{"modelcheck.memo_hit_share", "ratio"},
	{"taint.self_ms", "ms"},
	{"taint.flows", "count"},
	{"core.wall_ms", "ms"},
	{"core.alloc_mb_per_item", "MB"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_pct", "%"},
}

// serveLayers are the per-layer metrics of a traced serve run; they
// read 0 on the audit workloads, which never reach the service tier.
var serveLayers = []metricDef{
	{"service.rtt_ms_mean", "ms"},
	{"service.job_ms_mean", "ms"},
	{"service.queue_wait_ms_mean", "ms"},
	{"service.outside_job_ms", "ms"},
	{"service.phase.ir_ms_mean", "ms"},
	{"service.phase.statemodel_ms_mean", "ms"},
	{"service.phase.kripke_ms_mean", "ms"},
	{"service.phase.check_ms_mean", "ms"},
	{"journal.syncs_per_req", "count"},
	{"journal.appends_per_req", "count"},
	{"store.puts_per_req", "count"},
	{"store.put_ms_p50", "ms"},
	{"store.get_ms_p50", "ms"},
	{"cache.hit_share", "ratio"},
	{"store.disk_hit_share", "ratio"},
	{"report.encode_us_p50", "us"},
	{"report.decode_us_p50", "us"},
	{"loadgen.late_ms_p99", "ms"},
	{"loadgen.conn_wait_ms_p99", "ms"},
}

// workload is one named traffic mix.
type workload struct {
	name string
	run  func(ctx context.Context, cfg config, ref *reference) (*outcome, error)
}

// outcome is what a workload measured: the operation counts, the
// metric values by name, and (traced runs only) the recorded spans.
type outcome struct {
	attempted, failed, mismatched int
	values                        map[string]float64
	spans                         []span
}

// workloads are the benchmark's traffic mixes; README.md says why
// each exists. The serve rates (requests per second) are the steadier
// of the two each that were tried: at 150 cold and 2000 warm the
// run-to-run spread of p50_ms and cpu_ms_per_item was larger.
var workloads = []workload{
	{"audit-corpus", runAuditCorpus},
	{"audit-env", runAuditEnv},
	{"serve-cold", serveWorkload(false, 300)},
	{"serve-warm", serveWorkload(true, 1000)},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs one workload and prints its result. It
// returns the process exit code: 0 when a result was printed, 1 when
// the run could not complete, 2 for bad arguments.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload name")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run printing per-layer metrics")
	fs.StringVar(&cfg.soteriad, "soteriad", filepath.Join(".bench_build", "bin", "soteriad"), "soteriad binary")
	fs.StringVar(&cfg.work, "work", filepath.Join(".bench_build", "run"), "directory for daemon state")
	fs.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "out"), "directory for result JSON and span JSONL")
	fs.Float64Var(&cfg.rateScale, "rate-scale", 1, "multiplier on serve arrival rates")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = traceFlag == 1
	cfg.conns = runtime.NumCPU()
	var w *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", cfg.workload, workloadNames())
		return 2
	case traceFlag != 0 && traceFlag != 1:
		fmt.Fprintln(stderr, "bench: --trace must be 0 or 1")
		return 2
	case cfg.seconds <= 0 || cfg.rateScale <= 0:
		fmt.Fprintln(stderr, "bench: --seconds and --rate-scale must be positive")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	o, err := w.run(ctx, cfg, ref)
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := printResult(cfg, o, stdout); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", cfg.workload, err)
		return 1
	}
	return 0
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printResult prints one "workload metric value unit" line per metric
// and the JSON result line, and writes the result (and, when tracing,
// the spans) under cfg.out.
func printResult(cfg config, o *outcome, stdout io.Writer) error {
	defs := endToEnd
	if cfg.trace {
		defs = append(append(append([]metricDef{}, tailLayers...), auditLayers...), serveLayers...)
	}
	res := result{
		Correct:   o.mismatched == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok && !cfg.trace {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "%s %s %g %s\n", cfg.workload, d.name, v, d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	suffix := ""
	if cfg.trace {
		suffix = ".trace"
		if err := writeSpans(filepath.Join(cfg.out, cfg.workload+".spans.jsonl"), o.spans); err != nil {
			return err
		}
	}
	if err := os.WriteFile(filepath.Join(cfg.out, cfg.workload+suffix+".json"), append(line, '\n'), 0o644); err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// errMismatch marks a verdict that differs from the frozen reference.
var errMismatch = errors.New("verdict differs from testdata/verdicts.json")

// verdictErr returns an error wrapping errMismatch when item id's
// violated IDs got are not the frozen want.
func verdictErr(id string, got, want []string) error {
	if sameIDs(got, want) {
		return nil
	}
	return fmt.Errorf("%s: violated %v, want %v: %w", id, got, want, errMismatch)
}
