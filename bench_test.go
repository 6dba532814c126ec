// Benchmarks regenerating every table and figure of the paper's
// evaluation (DESIGN.md §3 maps experiment ids to these targets), the
// ablation studies of DESIGN.md §4, and micro-benchmarks of the core
// data structures. Run:
//
//	go test -bench=. -benchmem
//
// The experiment benches print their paper-style tables once (first
// iteration) so a bench run doubles as a reproduction log; recorded
// outputs live in EXPERIMENTS.md.
package midas_test

import (
	"fmt"
	"io"
	"os"
	"sync"
	"testing"

	"midas"
	"midas/internal/baselines"
	"midas/internal/core"
	"midas/internal/datagen"
	"midas/internal/experiments"
	"midas/internal/fact"
	"midas/internal/framework"
	"midas/internal/slice"
)

// tableOnce gates printing each experiment's table to one iteration.
var tableOnce sync.Map

func printOnce(key string, render func(w io.Writer)) {
	if _, dup := tableOnce.LoadOrStore(key, true); dup {
		return
	}
	fmt.Fprintf(os.Stdout, "\n--- %s ---\n", key)
	render(os.Stdout)
}

// --- Figure 3: qualitative top slices on the KnowledgeVault sim ---

func BenchmarkFig3QualitativeKnowledgeVault(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig3(3, 6, 0)
		printOnce("fig3", func(w io.Writer) { experiments.RenderFig3(w, rows) })
	}
}

// --- Figure 7: dataset statistics ---

func BenchmarkFig7DatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig7(0.25, 7)
		printOnce("fig7", func(w io.Writer) { experiments.RenderFig7(w, rows) })
	}
}

// --- Figure 8: silver-standard snapshot ---

func BenchmarkFig8SilverStandard(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig8("reverb-slim", 3, 7)
		printOnce("fig8", func(w io.Writer) { experiments.RenderFig8(w, rows) })
	}
}

// --- Figure 9: quality vs. KB coverage on the Slim datasets ---

func fig9Result(b *testing.B, dataset string, coverages []float64) *experiments.Fig9Result {
	cfg := experiments.DefaultFig9Config()
	cfg.Dataset = dataset
	cfg.Coverages = coverages
	return experiments.Fig9(cfg)
}

func BenchmarkFig9PRCoverage0(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := fig9Result(b, "reverb-slim", []float64{0})
		printOnce("fig9a", func(w io.Writer) { experiments.RenderFig9Curves(w, res, 0) })
	}
}

func BenchmarkFig9PRCoverage40(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := fig9Result(b, "reverb-slim", []float64{0.4})
		printOnce("fig9c", func(w io.Writer) { experiments.RenderFig9Curves(w, res, 0.4) })
	}
}

func BenchmarkFig9PRCoverage80(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := fig9Result(b, "reverb-slim", []float64{0.8})
		printOnce("fig9e", func(w io.Writer) { experiments.RenderFig9Curves(w, res, 0.8) })
	}
}

// BenchmarkFig9Recall/Precision/FMeasure share one sweep: the metric
// panels of Figures 9b/9d/9f are views of the same run.
func BenchmarkFig9Recall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := fig9Result(b, "reverb-slim", []float64{0, 0.2, 0.4, 0.6, 0.8})
		printOnce("fig9bdf", func(w io.Writer) { experiments.RenderFig9(w, res) })
	}
}

func BenchmarkFig9Precision(b *testing.B) { BenchmarkFig9Recall(b) }
func BenchmarkFig9FMeasure(b *testing.B)  { BenchmarkFig9Recall(b) }

func BenchmarkFig9NELLSlim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := fig9Result(b, "nell-slim", []float64{0, 0.4, 0.8})
		printOnce("fig9-nell", func(w io.Writer) { experiments.RenderFig9(w, res) })
	}
}

// --- Figure 10: top-k precision and runtime on the full corpora ---

func fig10Result(dataset string) *experiments.Fig10Result {
	cfg := experiments.DefaultFig10Config(dataset)
	cfg.Scale = 0.25
	cfg.Ratios = []float64{0.5, 1.0}
	return experiments.Fig10(cfg)
}

func BenchmarkFig10TopKReVerb(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := fig10Result("reverb")
		printOnce("fig10ab", func(w io.Writer) { experiments.RenderFig10(w, res) })
	}
}

func BenchmarkFig10TimeReVerb(b *testing.B) { BenchmarkFig10TopKReVerb(b) }

func BenchmarkFig10TopKNELL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := fig10Result("nell")
		printOnce("fig10cd", func(w io.Writer) { experiments.RenderFig10(w, res) })
	}
}

func BenchmarkFig10TimeNELL(b *testing.B) { BenchmarkFig10TopKNELL(b) }

// --- Figure 11: synthetic sweeps ---

func fig11Result(factCounts, optimalCounts []int) *experiments.Fig11Result {
	cfg := experiments.DefaultFig11Config()
	cfg.FactCounts = factCounts
	cfg.OptimalCounts = optimalCounts
	cfg.Trials = 1
	return experiments.Fig11(cfg)
}

func BenchmarkFig11AccuracyVsFacts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := fig11Result([]int{1000, 2500, 5000, 7500, 10000}, nil)
		printOnce("fig11ab", func(w io.Writer) { experiments.RenderFig11(w, res) })
	}
}

func BenchmarkFig11RuntimeVsFacts(b *testing.B) { BenchmarkFig11AccuracyVsFacts(b) }

func BenchmarkFig11AccuracyVsOptimal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := fig11Result(nil, []int{1, 2, 4, 6, 8, 10})
		printOnce("fig11cd", func(w io.Writer) { experiments.RenderFig11(w, res) })
	}
}

func BenchmarkFig11RuntimeVsOptimal(b *testing.B) { BenchmarkFig11AccuracyVsOptimal(b) }

// --- Ablations (DESIGN.md §4) ---

func BenchmarkAblationNoCanonicalPruning(b *testing.B) {
	table := synthTable(5000, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.DiscoverTable(table, core.Options{DisableCanonicalPrune: true})
	}
}

func BenchmarkAblationNoProfitPruning(b *testing.B) {
	table := synthTable(5000, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.DiscoverTable(table, core.Options{DisableProfitPrune: true})
	}
}

func BenchmarkAblationFullPruning(b *testing.B) {
	table := synthTable(5000, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.DiscoverTable(table, core.Options{})
	}
}

func BenchmarkAblationFlatVsHierarchical(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationFlatVsHierarchical(7, 0)
		printOnce("ablation-flat", func(w io.Writer) {
			experiments.RenderAblation(w, "flat vs hierarchical", rows)
		})
	}
}

func BenchmarkAblationComboCap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationComboCap(7, []int{1, 16, 64, 256})
		printOnce("ablation-combo", func(w io.Writer) {
			experiments.RenderAblation(w, "combo cap", rows)
		})
	}
}

func BenchmarkAblationParallelism(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			world := datagen.ReVerbSlim(datagen.DefaultSlimParams(7))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				framework.Run(world.Corpus, world.KB, framework.Options{Workers: workers})
			}
		})
	}
}

// --- Micro-benchmarks of the core machinery ---

func synthTable(n int, seed int64) *fact.Table {
	p := datagen.DefaultSyntheticParams()
	p.Facts = n
	p.Seed = seed
	p.KnownRatio = 0.98
	syn := datagen.NewSynthetic(p)
	return fact.Build(syn.Source, syn.Corpus.Space, syn.Triples(), syn.KB)
}

func BenchmarkMIDASalgSingleSource(b *testing.B) {
	table := synthTable(5000, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.DiscoverTable(table, core.Options{})
	}
}

func BenchmarkGreedySingleSource(b *testing.B) {
	table := synthTable(5000, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baselines.Greedy(table, slice.DefaultCostModel())
	}
}

func BenchmarkAggClusterSingleSource(b *testing.B) {
	table := synthTable(2000, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baselines.AggCluster(table, slice.DefaultCostModel())
	}
}

func BenchmarkFactTableBuild(b *testing.B) {
	p := datagen.DefaultSyntheticParams()
	p.Seed = 5
	syn := datagen.NewSynthetic(p)
	triples := syn.Triples()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fact.Build(syn.Source, syn.Corpus.Space, triples, syn.KB)
	}
}

func BenchmarkFrameworkEndToEnd(b *testing.B) {
	world := datagen.ReVerbSlim(datagen.DefaultSlimParams(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		framework.Run(world.Corpus, world.KB, framework.Options{})
	}
}

func BenchmarkPublicDiscover(b *testing.B) {
	existing := midas.NewKB()
	corpus := midas.NewCorpus(existing)
	for i := 0; i < 2000; i++ {
		corpus.Add(midas.Fact{
			Subject:    fmt.Sprintf("entity %d", i),
			Predicate:  "kind",
			Object:     fmt.Sprintf("type %d", i%10),
			Confidence: 0.9,
			URL:        fmt.Sprintf("http://bench.example.org/t%d/e%d.htm", i%10, i),
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		midas.Discover(corpus, existing, nil)
	}
}

// BenchmarkIncrementalDiscover measures the delta-aware re-discovery
// path: a session primed on a Slim corpus receives a one-fact delta on
// a single source each iteration and re-discovers. Steady-state cost is
// the touched branch plus consolidation, not the full corpus, so the
// per-op figures of the 100-domain Slim corpus and of one four times
// its size should match; an iteration that reuses nothing is a bug,
// not a slow run. Each size is primed once and kept across the
// benchmark's calls.
func BenchmarkIncrementalDiscover(b *testing.B) {
	for _, tc := range []struct {
		name   string
		params datagen.SlimParams
	}{
		{"slim", datagen.DefaultSlimParams(7)},
		{"slim4x", datagen.SlimParams{Domains: 400, GoodDomains: 200, Seed: 7}},
	} {
		var sess *midas.Session
		var url string
		deltas := 0
		b.Run(tc.name, func(b *testing.B) {
			if sess == nil {
				facts := worldFacts(datagen.ReVerbSlim(tc.params))
				url = facts[0].URL
				sess = midas.NewSession(nil, nil)
				sess.AddFacts(facts...)
				sess.Discover()
				b.ResetTimer()
			}
			for i := 0; i < b.N; i++ {
				sess.AddFacts(midas.Fact{
					Subject:    fmt.Sprintf("delta entity %d", deltas),
					Predicate:  "kind",
					Object:     fmt.Sprintf("delta kind %d", deltas),
					Confidence: 0.9,
					URL:        url,
				})
				deltas++
				if res := sess.Discover(); res.SourcesReused == 0 {
					b.Fatal("incremental discover reused nothing")
				}
			}
		})
	}
}

// --- Scaling sweep (EXPERIMENTS.md "scaling") ---

func BenchmarkScalingSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Scaling([]float64{0.25, 0.5, 1.0}, 7, 0)
		printOnce("scaling", func(w io.Writer) { experiments.RenderScaling(w, rows) })
	}
}

// --- Annotation-effort extension (EXPERIMENTS.md "annotation") ---

func BenchmarkAnnotationWrapperQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Annotation(7, 20, 20, 0)
		printOnce("annotation", func(w io.Writer) { experiments.RenderAnnotation(w, rows) })
	}
}

func BenchmarkCostModelSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.CostSensitivity(7, 0)
		printOnce("costmodel", func(w io.Writer) { experiments.RenderCostSensitivity(w, rows) })
	}
}
