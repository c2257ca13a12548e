// Command soteria-bench regenerates every table and figure of the
// paper's evaluation (§6) from the reproduction's corpora.
//
// Usage:
//
//	soteria-bench                 # everything
//	soteria-bench -table 2|3|4|maliot
//	soteria-bench -fig 11a|11b|union|verify
//	soteria-bench -ablation predicates|merging
//	soteria-bench -parallel-bench # time sequential vs parallel corpus audit
//	                              # at each GOMAXPROCS in -parallel-bench-procs
//	                              # (default 1,4,8), write BENCH_parallel.json
//	soteria-bench -bdd-bench      # sweep synthetic models (default 10^3..10^6
//	                              # states) through explicit vs BDD engines,
//	                              # write BENCH_bdd.json
//	soteria-bench -obs-bench      # measure span-tracing overhead (off vs on)
//	                              # on a full analysis, write BENCH_obs.json,
//	                              # fail if the median overhead exceeds 3%
//	soteria-bench -cpuprofile F   # write a CPU profile of the run to F
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"github.com/soteria-analysis/soteria/internal/bdd"
	"github.com/soteria-analysis/soteria/internal/ctl"
	"github.com/soteria-analysis/soteria/internal/experiments"
	"github.com/soteria-analysis/soteria/internal/kripke"
	"github.com/soteria-analysis/soteria/internal/market/audit"
	"github.com/soteria-analysis/soteria/internal/modelcheck"
	"github.com/soteria-analysis/soteria/internal/statemodel"
	"github.com/soteria-analysis/soteria/internal/symbolic"
)

func main() {
	table := flag.String("table", "", "regenerate one table: 2, 3, 4, or maliot")
	fig := flag.String("fig", "", "regenerate one figure: 11a, 11b, union, or verify")
	ablation := flag.String("ablation", "", "run one ablation: predicates or merging")
	parallelBench := flag.Bool("parallel-bench", false, "benchmark a sequential vs parallel market audit and write BENCH_parallel.json")
	benchOut := flag.String("parallel-bench-out", "BENCH_parallel.json", "output path for -parallel-bench")
	benchProcs := flag.String("parallel-bench-procs", "1,4,8", "comma-separated GOMAXPROCS settings to sweep in -parallel-bench")
	bddBench := flag.Bool("bdd-bench", false, "benchmark explicit vs BDD engines on synthetic models and write BENCH_bdd.json")
	bddBenchOut := flag.String("bdd-bench-out", "BENCH_bdd.json", "output path for -bdd-bench")
	bddBenchSizes := flag.String("bdd-bench-sizes", "1000,10000,100000,1000000", "comma-separated approximate state counts to sweep in -bdd-bench")
	obsBench := flag.Bool("obs-bench", false, "measure span-tracing overhead on a full analysis and write BENCH_obs.json")
	obsBenchOut := flag.String("obs-bench-out", "BENCH_obs.json", "output path for -obs-bench")
	obsBenchPairs := flag.Int("obs-bench-pairs", 40, "off/on measurement pairs for -obs-bench")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "soteria-bench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "soteria-bench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		// Stopped explicitly on the success paths below; error paths
		// os.Exit with a truncated profile, which pprof tolerates.
		defer pprof.StopCPUProfile()
	}

	if *obsBench {
		if err := runObsBench(*obsBenchPairs, *obsBenchOut); err != nil {
			fmt.Fprintf(os.Stderr, "soteria-bench: obs-bench: %v\n", err)
			pprof.StopCPUProfile()
			os.Exit(1)
		}
		return
	}

	if *parallelBench {
		if err := runParallelBench(*benchProcs, *benchOut); err != nil {
			fmt.Fprintf(os.Stderr, "soteria-bench: parallel-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *bddBench {
		if err := runBDDBench(*bddBenchSizes, *bddBenchOut); err != nil {
			fmt.Fprintf(os.Stderr, "soteria-bench: bdd-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	all := *table == "" && *fig == "" && *ablation == ""
	ran := false

	run := func(name string, fn func() error) {
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "soteria-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
		ran = true
	}

	if all || *table == "2" {
		run("table 2", func() error {
			t, err := experiments.Table2()
			if err != nil {
				return err
			}
			fmt.Print(t.String())
			return nil
		})
	}
	if all || *table == "3" {
		run("table 3", func() error {
			t, err := experiments.Table3()
			if err != nil {
				return err
			}
			fmt.Print(t.String())
			return nil
		})
	}
	if all || *table == "4" {
		run("table 4", func() error {
			t, err := experiments.Table4()
			if err != nil {
				return err
			}
			fmt.Print(t.String())
			return nil
		})
	}
	if all || *table == "maliot" {
		run("maliot", func() error {
			t, _, err := experiments.MalIoTTable()
			if err != nil {
				return err
			}
			fmt.Print(t.String())
			return nil
		})
	}
	if all || *fig == "11a" {
		run("fig 11a", func() error {
			t, err := experiments.Fig11a()
			if err != nil {
				return err
			}
			fmt.Print(t.String())
			return nil
		})
	}
	if all || *fig == "11b" {
		run("fig 11b", func() error {
			s, err := experiments.Fig11b()
			if err != nil {
				return err
			}
			fmt.Print(s.String())
			return nil
		})
	}
	if all || *fig == "union" {
		run("union", func() error {
			t, err := experiments.UnionTiming()
			if err != nil {
				return err
			}
			fmt.Print(t.String())
			return nil
		})
	}
	if all || *fig == "verify" {
		run("verify", func() error {
			t, err := experiments.VerificationTiming()
			if err != nil {
				return err
			}
			fmt.Print(t.String())
			return nil
		})
	}
	if all || *ablation == "predicates" {
		run("ablation predicates", func() error {
			t, err := experiments.AblationPredicateLabels()
			if err != nil {
				return err
			}
			fmt.Print(t.String())
			return nil
		})
	}
	if all || *ablation == "merging" {
		run("ablation merging", func() error {
			t, err := experiments.AblationPathMerging()
			if err != nil {
				return err
			}
			fmt.Print(t.String())
			return nil
		})
	}

	if !ran {
		fmt.Fprintln(os.Stderr, "soteria-bench: nothing selected")
		flag.PrintDefaults()
		os.Exit(2)
	}
}

// parallelBenchPoint is one setting in the -parallel-bench sweep:
// sequential vs parallel wall time for a cold full-corpus audit (65
// individual apps + the Table 4 groups) at a fixed GOMAXPROCS, and
// whether the two runs produced identical verdicts.
type parallelBenchPoint struct {
	GOMAXPROCS        int     `json:"gomaxprocs"`
	Parallel          int     `json:"parallel"`
	SequentialFirst   bool    `json:"sequential_first"`
	SequentialMS      float64 `json:"sequential_ms"`
	ParallelMS        float64 `json:"parallel_ms"`
	Speedup           float64 `json:"speedup"`
	VerdictsIdentical bool    `json:"verdicts_identical"`
	// Oversubscribed marks points whose GOMAXPROCS exceeds the host's
	// CPU count: their speedup measures scheduler thrash, not scaling,
	// and must not be read as part of the curve.
	Oversubscribed bool `json:"oversubscribed,omitempty"`
}

// parallelBenchResult is the machine-readable trajectory
// -parallel-bench emits: one point per GOMAXPROCS setting, so the
// scaling curve (and its ceiling on a small host) is visible in a
// single artifact. HostCPUs records the physical budget: points with
// gomaxprocs above it can only show oversubscription, never speedup.
type parallelBenchResult struct {
	CorpusApps int                  `json:"corpus_apps"`
	Groups     int                  `json:"groups"`
	HostCPUs   int                  `json:"host_cpus"`
	Points     []parallelBenchPoint `json:"points"`
}

// runParallelBench sweeps the GOMAXPROCS settings in procs, timing two
// cold audits of the whole market corpus at each — workers=1 and
// workers=gomaxprocs (4 when the setting is 1, so the 1-proc point
// honestly shows fan-out without cores buys ~1x). Each audit gets a
// fresh (nil) cache so no run borrows another's work.
//
// Two de-biasing measures: a discarded warmup audit runs first (OS
// page cache, lazily-parsed corpus sources, and runtime JIT-ish
// warmup — GC sizing, map growth — would otherwise be charged entirely
// to whichever run goes first), and the sequential/parallel order
// alternates per sweep point so neither side systematically enjoys the
// warmer process.
func runParallelBench(procs, out string) error {
	ctx := context.Background()
	restore := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(restore)

	// Discarded warmup pass (sequential; results dropped).
	_ = audit.Run(ctx, 1)

	res := parallelBenchResult{HostCPUs: runtime.NumCPU()}
	for i, field := range strings.Split(procs, ",") {
		maxprocs, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil || maxprocs < 1 {
			return fmt.Errorf("bad -parallel-bench-procs entry %q", field)
		}
		runtime.GOMAXPROCS(maxprocs)
		parallel := maxprocs
		if parallel < 2 {
			parallel = 4
		}

		var seq, par *audit.Report
		var seqDur, parDur time.Duration
		timeRun := func(workers int) (*audit.Report, time.Duration) {
			t0 := time.Now()
			r := audit.Run(ctx, workers)
			return r, time.Since(t0)
		}
		if i%2 == 0 {
			seq, seqDur = timeRun(1)
			par, parDur = timeRun(parallel)
		} else {
			par, parDur = timeRun(parallel)
			seq, seqDur = timeRun(1)
		}

		res.CorpusApps = len(seq.Apps)
		res.Groups = len(seq.Groups)
		pt := parallelBenchPoint{
			GOMAXPROCS:        maxprocs,
			Parallel:          parallel,
			SequentialFirst:   i%2 == 0,
			SequentialMS:      float64(seqDur.Microseconds()) / 1000,
			ParallelMS:        float64(parDur.Microseconds()) / 1000,
			Speedup:           seqDur.Seconds() / parDur.Seconds(),
			VerdictsIdentical: identicalVerdicts(seq, par),
			Oversubscribed:    maxprocs > res.HostCPUs,
		}
		res.Points = append(res.Points, pt)
		note := ""
		if pt.Oversubscribed {
			note = " [oversubscribed]"
		}
		fmt.Printf("parallel bench @GOMAXPROCS=%d: sequential %.1fms, parallel(%d) %.1fms, speedup %.2fx, verdicts identical: %t%s\n",
			pt.GOMAXPROCS, pt.SequentialMS, pt.Parallel, pt.ParallelMS, pt.Speedup, pt.VerdictsIdentical, note)
	}

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		return err
	}
	fmt.Printf("parallel bench trajectory (%d points) → %s\n", len(res.Points), out)
	return nil
}

// bddKernelPoint is the BDD engine's measurement at one model size:
// wall time for the full symbolic check (encode + fixpoints), the
// per-operation cost (wall / ITE-cache lookups, the kernel's unit of
// work), and the kernel's table statistics at the end of the run.
type bddKernelPoint struct {
	WallMS         float64 `json:"wall_ms"`
	NsPerOp        float64 `json:"ns_per_op"`
	Nodes          int     `json:"nodes"`
	UniqueCapacity int     `json:"unique_capacity"`
	UniqueLoad     float64 `json:"unique_load"`
	Rehashes       int     `json:"rehashes"`
	ITELookups     uint64  `json:"ite_lookups"`
	ITEHitRate     float64 `json:"ite_hit_rate"`
	OpLookups      uint64  `json:"op_lookups"`
	OpHitRate      float64 `json:"op_hit_rate"`
}

// bddBenchPoint is one model size in the -bdd-bench sweep: the
// collapse model's actual state count, explicit-engine wall time, and
// the BDD engine's measurement for the same check. Agree reports that
// both engines returned the same verdict and satisfaction set.
type bddBenchPoint struct {
	RequestedStates int            `json:"requested_states"`
	States          int            `json:"states"`
	Domain          int            `json:"domain"`
	ExplicitMS      float64        `json:"explicit_ms"`
	BDD             bddKernelPoint `json:"bdd"`
	Agree           bool           `json:"agree"`
}

// bddBenchResult is the artifact -bdd-bench writes: the swept formula,
// one point per model size, and the host shape for context.
type bddBenchResult struct {
	Formula  string          `json:"formula"`
	HostCPUs int             `json:"host_cpus"`
	Points   []bddBenchPoint `json:"points"`
}

// runBDDBench sweeps synthetic collapse models (statemodel.
// NewSyntheticCollapse, d² states with d = round(√N)) through the
// explicit-state checker and the symbolic BDD engine and writes
// BENCH_bdd.json. The formula is EF(dev0.attr=v0 ∧ dev1.attr=v0), a
// backward-reachability fixpoint that converges in ~log₂(N)
// iterations, so the symbolic engine is exercised at 10⁶ states in
// seconds.
func runBDDBench(sizes, out string) error {
	f := ctl.EF{X: ctl.And{L: ctl.Prop{Name: "dev0.attr=v0"}, R: ctl.Prop{Name: "dev1.attr=v0"}}}
	res := bddBenchResult{Formula: f.String(), HostCPUs: runtime.NumCPU()}

	// Warmup: one small end-to-end pass per engine, results discarded,
	// so the first timed point isn't charged for lazy runtime setup.
	if err := func() error {
		m, err := statemodel.NewSyntheticCollapse(8)
		if err != nil {
			return err
		}
		k := kripke.FromModel(m)
		_ = modelcheck.Check(k, f)
		_ = symbolic.New(k).Check(f)
		return nil
	}(); err != nil {
		return fmt.Errorf("warmup: %w", err)
	}

	for _, field := range strings.Split(sizes, ",") {
		want, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil || want < 4 {
			return fmt.Errorf("bad -bdd-bench-sizes entry %q", field)
		}
		d := int(math.Round(math.Sqrt(float64(want))))
		if d < 2 {
			d = 2
		}
		m, err := statemodel.NewSyntheticCollapse(d)
		if err != nil {
			return err
		}
		k := kripke.FromModel(m)

		t0 := time.Now()
		exp := modelcheck.Check(k, f)
		expDur := time.Since(t0)

		t1 := time.Now()
		eng := symbolic.New(k)
		sym := eng.Check(f)
		symPt := kernelPoint(time.Since(t1), eng.KernelStats())

		pt := bddBenchPoint{
			RequestedStates: want,
			States:          k.N,
			Domain:          d,
			ExplicitMS:      float64(expDur.Microseconds()) / 1000,
			BDD:             symPt,
			Agree:           exp.Holds == sym.Holds && sameSat(exp.Sat, sym.Sat),
		}
		res.Points = append(res.Points, pt)
		fmt.Printf("bdd bench @%d states (d=%d): explicit %.1fms, bdd %.1fms (%.1f ns/op, %d nodes, load %.2f, ite hit %.2f), agree: %t\n",
			pt.States, d, pt.ExplicitMS,
			symPt.WallMS, symPt.NsPerOp, symPt.Nodes, symPt.UniqueLoad, symPt.ITEHitRate, pt.Agree)
	}

	fo, err := os.Create(out)
	if err != nil {
		return err
	}
	defer fo.Close()
	enc := json.NewEncoder(fo)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		return err
	}
	fmt.Printf("bdd bench sweep (%d points) → %s\n", len(res.Points), out)
	return nil
}

func kernelPoint(dur time.Duration, st bdd.Stats) bddKernelPoint {
	p := bddKernelPoint{
		WallMS:         float64(dur.Microseconds()) / 1000,
		Nodes:          st.Nodes,
		UniqueCapacity: st.UniqueCapacity,
		UniqueLoad:     st.UniqueLoad,
		Rehashes:       st.Rehashes,
		ITELookups:     st.ITELookups,
		ITEHitRate:     st.ITEHitRate,
		OpLookups:      st.OpLookups,
		OpHitRate:      st.OpHitRate,
	}
	if st.ITELookups > 0 {
		p.NsPerOp = float64(dur.Nanoseconds()) / float64(st.ITELookups)
	}
	return p
}

func sameSat(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func identicalVerdicts(a, b *audit.Report) bool {
	same := func(x, y []audit.Entry) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i].ID != y[i].ID || x[i].Incomplete != y[i].Incomplete ||
				len(x[i].Violated) != len(y[i].Violated) {
				return false
			}
			for j := range x[i].Violated {
				if x[i].Violated[j] != y[i].Violated[j] {
					return false
				}
			}
		}
		return true
	}
	return same(a.Apps, b.Apps) && same(a.Groups, b.Groups)
}
