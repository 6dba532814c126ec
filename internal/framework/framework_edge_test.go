package framework_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"midas/internal/core"
	"midas/internal/fact"
	"midas/internal/framework"
	"midas/internal/hierarchy"
	"midas/internal/kb"
	"midas/internal/slice"
)

// TestMixedDepthSources: facts extracted at a sub-domain URL and at
// page URLs below it must fold into the same hierarchy node — the
// sub-domain is both a leaf source and a parent.
func TestMixedDepthSources(t *testing.T) {
	corpus := fact.NewCorpus(nil)
	// 15 entities on individual pages under a.com/wiki.
	for i := 0; i < 15; i++ {
		corpus.Add(fact.Fact{
			Subject: fmt.Sprintf("deep%d", i), Predicate: "kind", Object: "widget",
			Confidence: 0.9, URL: fmt.Sprintf("http://a.com/wiki/e%d.htm", i),
		})
	}
	// 15 more extracted from the sub-domain listing page itself.
	for i := 0; i < 15; i++ {
		corpus.Add(fact.Fact{
			Subject: fmt.Sprintf("flat%d", i), Predicate: "kind", Object: "widget",
			Confidence: 0.9, URL: "http://a.com/wiki",
		})
	}
	out := framework.Run(corpus, nil, framework.Options{
		Cost: slice.ExampleCostModel(),
	})
	if len(out.Slices) != 1 {
		for _, s := range out.Slices {
			t.Logf("%s @ %s (%d)", s.Description(corpus.Space), s.Source, s.NewFacts)
		}
		t.Fatalf("want 1 consolidated slice, got %d", len(out.Slices))
	}
	s := out.Slices[0]
	if s.NewFacts != 30 {
		t.Errorf("new facts = %d, want all 30 (both depths folded)", s.NewFacts)
	}
	if s.Source != "a.com/wiki" {
		t.Errorf("source = %q, want a.com/wiki", s.Source)
	}
}

// TestDomainsAreIndependent: slices from unrelated domains never
// consolidate, and both survive.
func TestDomainsAreIndependent(t *testing.T) {
	corpus := fact.NewCorpus(nil)
	for d := 0; d < 3; d++ {
		for i := 0; i < 20; i++ {
			corpus.Add(fact.Fact{
				Subject: fmt.Sprintf("d%d-e%d", d, i), Predicate: "kind", Object: fmt.Sprintf("type%d", d),
				Confidence: 0.9, URL: fmt.Sprintf("http://host%d.com/x/e%d.htm", d, i),
			})
		}
	}
	out := framework.Run(corpus, nil, framework.Options{Cost: slice.ExampleCostModel()})
	if len(out.Slices) != 3 {
		t.Fatalf("want 3 slices, got %d", len(out.Slices))
	}
	hosts := make(map[string]bool)
	for _, s := range out.Slices {
		hosts[s.Source] = true
	}
	if len(hosts) != 3 {
		t.Errorf("slices collapsed across domains: %v", hosts)
	}
}

// TestMalformedURLs: facts with empty or bizarre URLs must not crash
// the pipeline; empty sources are dropped.
func TestMalformedURLs(t *testing.T) {
	corpus := fact.NewCorpus(nil)
	for i, url := range []string{"", "http://", "///", "http://ok.com/a", "not a url but fine"} {
		corpus.Add(fact.Fact{
			Subject: fmt.Sprintf("e%d", i), Predicate: "p", Object: fmt.Sprintf("v%d", i),
			Confidence: 0.9, URL: url,
		})
	}
	out := framework.Run(corpus, nil, framework.Options{Cost: slice.ExampleCostModel()})
	_ = out // reaching here without panic is the assertion
}

// TestCustomDetectorContract: the framework must tolerate detectors
// returning nil, empty slices, or duplicate slices.
func TestCustomDetectorContract(t *testing.T) {
	corpus, existing := exampleCorpus()

	// Detectors run on pool workers, so the counter must be atomic.
	var calls atomic.Int64
	nilDetector := func(table *fact.Table, seeds []hierarchy.Seed) []*slice.Slice {
		calls.Add(1)
		return nil
	}
	out := framework.Run(corpus, existing, framework.Options{Detect: nilDetector})
	if len(out.Slices) != 0 {
		t.Errorf("nil detector produced %d slices", len(out.Slices))
	}
	if n := calls.Load(); n != int64(out.SourcesProcessed) || n == 0 {
		t.Errorf("detector calls = %d, sources = %d", n, out.SourcesProcessed)
	}

	// A detector that duplicates its answer: consolidation still runs
	// and the output stays finite and deterministic.
	dupDetector := func(table *fact.Table, seeds []hierarchy.Seed) []*slice.Slice {
		res := core.DiscoverSeeded(table, seeds, core.Options{Cost: slice.ExampleCostModel()}).Slices
		return append(res, res...)
	}
	dupOut := framework.Run(corpus, existing, framework.Options{
		Cost:   slice.ExampleCostModel(),
		Detect: dupDetector,
	})
	if len(dupOut.Slices) == 0 || len(dupOut.Slices) > 4 {
		t.Errorf("duplicate detector produced %d slices", len(dupOut.Slices))
	}
}

// TestWorkerCountsEquivalent: any worker count produces the same output.
func TestWorkerCountsEquivalent(t *testing.T) {
	corpus := fact.NewCorpus(nil)
	rng := rand.New(rand.NewSource(5))
	for d := 0; d < 10; d++ {
		for i := 0; i < 30; i++ {
			corpus.Add(fact.Fact{
				Subject:    fmt.Sprintf("d%d-e%d", d, i),
				Predicate:  "kind",
				Object:     fmt.Sprintf("type%d-%d", d, rng.Intn(2)),
				Confidence: 0.9,
				URL:        fmt.Sprintf("http://h%d.com/s%d/e%d.htm", d, i%3, i),
			})
		}
	}
	existing := kb.New(corpus.Space)
	ref := framework.Run(corpus, existing, framework.Options{Workers: 1})
	for _, w := range []int{2, 4, 16} {
		got := framework.Run(corpus, existing, framework.Options{Workers: w})
		if len(got.Slices) != len(ref.Slices) {
			t.Fatalf("workers=%d: %d slices vs %d", w, len(got.Slices), len(ref.Slices))
		}
		for i := range ref.Slices {
			if got.Slices[i].Source != ref.Slices[i].Source || got.Slices[i].Profit != ref.Slices[i].Profit {
				t.Fatalf("workers=%d: slice %d differs", w, i)
			}
		}
	}
}

// TestRunContextCancellation: a pre-cancelled context returns
// immediately with the context error and no slices; a live context
// matches Run.
func TestRunContextCancellation(t *testing.T) {
	corpus, existing := exampleCorpus()

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := framework.RunContext(cancelled, corpus, existing, exampleFrameworkOpts())
	if err == nil {
		t.Fatal("want context error")
	}
	if len(out.Slices) != 0 {
		t.Errorf("pre-cancelled run produced %d slices", len(out.Slices))
	}

	live, err := framework.RunContext(context.Background(), corpus, existing, exampleFrameworkOpts())
	if err != nil {
		t.Fatal(err)
	}
	ref := framework.Run(corpus, existing, exampleFrameworkOpts())
	if len(live.Slices) != len(ref.Slices) {
		t.Errorf("RunContext and Run disagree: %d vs %d", len(live.Slices), len(ref.Slices))
	}
}
