// Command midas-bench regenerates the paper's tables and figures
// (see DESIGN.md §3 for the experiment index and EXPERIMENTS.md for
// recorded outputs).
//
// Usage:
//
//	midas-bench -exp fig11            # one experiment
//	midas-bench -exp all              # everything (minutes)
//	midas-bench -exp fig3 -stats bench-stats.json
//
// Experiments: fig3, fig7, fig8, fig9, fig9-nell, fig10-reverb,
// fig10-nell, fig11, annotation, scaling, costmodel, ablation-pruning,
// ablation-flat, ablation-parallel, ablation-combo,
// ablation-traversal, all.
//
// -stats writes a JSON snapshot of the pipeline's observability
// registry (per-phase timings, hierarchy pruning counters, worker
// utilization) collected as a side effect of the run; CI uploads it as
// the perf-trajectory artifact. -listen serves the registry live while
// the experiments run — /metrics as OpenMetrics text, /debug/vars as
// expvar JSON, /debug/pprof — so a scraper polls the run instead of
// waiting for the exit snapshot. -trace writes a Chrome trace-event
// JSON of every pipeline span (load in Perfetto); -trace-sample N keeps
// only every Nth root span (with its children), bounding the trace on
// -exp all runs. -pprof serves net/http/pprof alone, kept for
// compatibility (-listen includes it). -hier-workers pins the
// within-source lattice-build worker count process-wide (results are
// bit-identical for every value; only wall time changes).
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"time"

	"midas/internal/experiments"
	"midas/internal/hierarchy"
	"midas/internal/obs"
)

func main() {
	var (
		exp         = flag.String("exp", "all", "experiment id (see doc comment)")
		seed        = flag.Int64("seed", 7, "generator seed")
		scale       = flag.Float64("scale", 0.5, "corpus scale for fig10")
		statsPath   = flag.String("stats", "", "write a JSON metrics snapshot of the run to this file")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		listen      = flag.String("listen", "", "serve live telemetry (/metrics, /debug/vars, /debug/pprof) on this address (e.g. localhost:9090)")
		tracePath   = flag.String("trace", "", "write a Chrome trace-event JSON of the run's spans to this file (load in Perfetto)")
		traceSample = flag.Int("trace-sample", 1, "with -trace, record every Nth root span (1 = all)")
		hierWorkers = flag.Int("hier-workers", 0, "within-source lattice-build workers (0 = GOMAXPROCS, 1 = sequential; output is identical)")
	)
	flag.Parse()
	if *hierWorkers != 0 {
		hierarchy.SetDefaultWorkers(*hierWorkers)
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "midas-bench: pprof:", err)
			}
		}()
	}
	if *listen != "" {
		addr, err := obs.ListenAndServe(*listen, obs.Default())
		if err != nil {
			fmt.Fprintln(os.Stderr, "midas-bench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "serving live telemetry on http://%s/metrics\n", addr)
	}
	if *tracePath != "" {
		// The experiments call the framework without explicit options;
		// the default tracer is the fallback they report spans into.
		tr := obs.NewTracer()
		tr.SetRootSampling(*traceSample)
		obs.SetDefaultTracer(tr)
	}

	run := map[string]func(){
		"fig3": func() { fig3(*seed) },
		"fig7": func() { fig7(*scale, *seed) },
		"fig8": func() { fig8(*seed) },
		"fig9": func() { fig9("reverb-slim", *seed) },
		"fig9-nell": func() {
			fig9("nell-slim", *seed)
		},
		"fig10-reverb": func() { fig10("reverb", *scale, *seed) },
		"fig10-nell":   func() { fig10("nell", *scale, *seed) },
		"fig11":        func() { fig11(*seed) },
		"ablation-pruning": func() {
			experiments.RenderAblation(os.Stdout, "Ablation: MIDASalg pruning strategies (dense source, 400 entities):",
				experiments.AblationPruning(400, *seed))
		},
		"ablation-flat": func() {
			experiments.RenderAblation(os.Stdout, "Ablation: flat per-granularity sweep vs. hierarchical framework (ReVerb-Slim):",
				experiments.AblationFlatVsHierarchical(*seed, 0))
		},
		"ablation-parallel": func() {
			experiments.RenderAblation(os.Stdout, "Ablation: framework worker count (ReVerb-Slim):",
				experiments.AblationParallelism(*seed, []int{1, 2, 4, 8}))
		},
		"costmodel": func() {
			experiments.RenderCostSensitivity(os.Stdout, experiments.CostSensitivity(*seed, 0))
		},
		"annotation": func() {
			experiments.RenderAnnotation(os.Stdout, experiments.Annotation(*seed, 20, 20, 0))
		},
		"scaling": func() {
			experiments.RenderScaling(os.Stdout, experiments.Scaling([]float64{0.25, 0.5, 1.0, 2.0}, *seed, 0))
		},
		"ablation-traversal": func() {
			experiments.RenderAblation(os.Stdout, "Ablation: within-level traversal order (40 random dense sources):",
				experiments.AblationTraversalOrder(40, *seed))
		},
		"ablation-combo": func() {
			experiments.RenderAblation(os.Stdout, "Ablation: initial-slice combination cap (multi-valued source):",
				experiments.AblationComboCap(*seed, []int{1, 4, 16, 64, 256}))
		},
	}

	order := []string{
		"fig3", "fig7", "fig8", "fig9", "fig9-nell", "fig10-reverb",
		"fig10-nell", "fig11", "annotation", "scaling", "costmodel", "ablation-pruning",
		"ablation-flat", "ablation-parallel", "ablation-combo", "ablation-traversal",
	}
	if *exp == "all" {
		for _, id := range order {
			banner(id)
			run[id]()
		}
	} else {
		fn, ok := run[*exp]
		if !ok {
			fmt.Fprintf(os.Stderr, "midas-bench: unknown experiment %q\n", *exp)
			os.Exit(2)
		}
		banner(*exp)
		fn()
	}
	if *statsPath != "" {
		if err := obs.Default().WriteFile(*statsPath); err != nil {
			fmt.Fprintln(os.Stderr, "midas-bench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote metrics snapshot to %s\n", *statsPath)
	}
	if *tracePath != "" {
		if err := obs.DefaultTracer().WriteFile(*tracePath); err != nil {
			fmt.Fprintln(os.Stderr, "midas-bench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote Chrome trace (%d spans) to %s\n", obs.DefaultTracer().Len(), *tracePath)
	}
}

func banner(id string) {
	fmt.Printf("\n================ %s ================\n", id)
}

func fig3(seed int64) {
	start := time.Now()
	rows := experiments.Fig3(seed, 6, 0)
	experiments.RenderFig3(os.Stdout, rows)
	fmt.Printf("(%.1fs)\n", time.Since(start).Seconds())
}

func fig7(scale float64, seed int64) {
	experiments.RenderFig7(os.Stdout, experiments.Fig7(scale, seed))
}

func fig8(seed int64) {
	experiments.RenderFig8(os.Stdout, experiments.Fig8("reverb-slim", 5, seed))
}

func fig9(dataset string, seed int64) {
	start := time.Now()
	cfg := experiments.DefaultFig9Config()
	cfg.Dataset = dataset
	cfg.Seed = seed
	res := experiments.Fig9(cfg)
	experiments.RenderFig9(os.Stdout, res)
	for _, cov := range []float64{0, 0.4, 0.8} {
		experiments.RenderFig9Curves(os.Stdout, res, cov)
		fmt.Println()
	}
	fmt.Printf("(%.1fs)\n", time.Since(start).Seconds())
}

func fig10(dataset string, scale float64, seed int64) {
	start := time.Now()
	cfg := experiments.DefaultFig10Config(dataset)
	cfg.Scale = scale
	cfg.Seed = seed
	res := experiments.Fig10(cfg)
	experiments.RenderFig10(os.Stdout, res)
	fmt.Printf("(%.1fs)\n", time.Since(start).Seconds())
}

func fig11(seed int64) {
	start := time.Now()
	cfg := experiments.DefaultFig11Config()
	cfg.Seed = seed
	res := experiments.Fig11(cfg)
	experiments.RenderFig11(os.Stdout, res)
	fmt.Printf("(%.1fs)\n", time.Since(start).Seconds())
}
