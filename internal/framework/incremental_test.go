package framework_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"midas/internal/datagen"
	"midas/internal/fact"
	"midas/internal/framework"
	"midas/internal/kb"
	"midas/internal/obs"
)

// contextCanceled returns an already-canceled context.
func contextCanceled() (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx, cancel
}

// outputsEqual compares two runs slice-for-slice, including profits and
// materialized fact sets — the equivalence the incremental path must
// preserve bit-exactly.
func outputsEqual(t *testing.T, want, got *framework.Output) {
	t.Helper()
	if len(want.Slices) != len(got.Slices) {
		t.Fatalf("slice count: want %d, got %d", len(want.Slices), len(got.Slices))
	}
	for i := range want.Slices {
		if !reflect.DeepEqual(*want.Slices[i], *got.Slices[i]) {
			t.Errorf("slice %d differs:\nwant %+v\ngot  %+v", i, *want.Slices[i], *got.Slices[i])
		}
	}
	if !reflect.DeepEqual(want.FactSets, got.FactSets) {
		t.Error("fact sets differ")
	}
	if want.Rounds != got.Rounds {
		t.Errorf("rounds: want %d, got %d", want.Rounds, got.Rounds)
	}
	if len(want.Levels) != len(got.Levels) {
		t.Fatalf("levels: want %d, got %d", len(want.Levels), len(got.Levels))
	}
	for i, w := range want.Levels {
		if g := got.Levels[i]; w.Depth != g.Depth || w.Sources != g.Sources || w.Slices != g.Slices {
			t.Errorf("level %d: want depth %d, %d sources, %d slices; got depth %d, %d sources, %d slices",
				i, w.Depth, w.Sources, w.Slices, g.Depth, g.Sources, g.Slices)
		}
	}
}

// TestPriorFullReuse: an unchanged corpus and KB must answer every
// source from the prior run without a single detector invocation.
func TestPriorFullReuse(t *testing.T) {
	corpus, existing := exampleCorpus()
	opts := exampleFrameworkOpts()

	first := framework.Run(corpus, existing, opts)
	if first.NextPrior == nil {
		t.Fatal("completed run must return NextPrior")
	}
	if first.SourcesReused != 0 {
		t.Fatalf("first run reused %d sources, want 0", first.SourcesReused)
	}
	if first.NextPrior.NumSources() != first.SourcesProcessed {
		t.Fatalf("NextPrior holds %d sources, processed %d", first.NextPrior.NumSources(), first.SourcesProcessed)
	}

	opts.Prior = first.NextPrior
	second := framework.Run(corpus, existing, opts)
	if second.SourcesProcessed != 0 {
		t.Fatalf("unchanged rerun processed %d sources, want 0", second.SourcesProcessed)
	}
	if second.SourcesReused != first.SourcesProcessed {
		t.Fatalf("unchanged rerun reused %d sources, want %d", second.SourcesReused, first.SourcesProcessed)
	}
	outputsEqual(t, first, second)
	for _, lv := range second.Levels {
		if lv.Reused != lv.Sources {
			t.Errorf("depth %d: reused %d of %d sources", lv.Depth, lv.Reused, lv.Sources)
		}
	}
}

// withPartition runs f over a fresh example corpus twice: with no
// partition, so every run walks all sources against the prior, and with
// a caller-held partition, so a run over the same partition walks only
// the sources the delta reaches. extend folds appended facts into the
// partition.
func withPartition(t *testing.T, f func(t *testing.T, corpus *fact.Corpus, existing *kb.KB, opts framework.Options, extend func())) {
	t.Run("full-walk", func(t *testing.T) {
		corpus, existing := exampleCorpus()
		f(t, corpus, existing, exampleFrameworkOpts(), func() {})
	})
	t.Run("partition", func(t *testing.T) {
		corpus, existing := exampleCorpus()
		part := fact.NewPartition()
		part.Extend(corpus)
		opts := exampleFrameworkOpts()
		opts.Partition = part
		f(t, corpus, existing, opts, func() { part.Extend(corpus) })
	})
}

// TestPriorCorpusDelta: appending facts to one page must rebuild only
// that page's branch of the URL hierarchy; every untouched source is
// reused, and the output matches a from-scratch run bit-for-bit.
func TestPriorCorpusDelta(t *testing.T) {
	withPartition(t, func(t *testing.T, corpus *fact.Corpus, existing *kb.KB, opts framework.Options, extend func()) {
		first := framework.Run(corpus, existing, opts)

		corpus.Add(fact.Fact{
			Subject: "Delta", Predicate: "category", Object: "rocket_family",
			Confidence: 0.9, URL: "http://space.skyrocket.de/doc_lau_fam/atlas.htm",
		})
		extend()

		incOpts := opts
		incOpts.Prior = first.NextPrior
		inc := framework.Run(corpus, existing, incOpts)
		fresh := framework.Run(corpus, existing, exampleFrameworkOpts())
		outputsEqual(t, fresh, inc)

		if inc.SourcesReused == 0 {
			t.Fatal("one-page delta must reuse the untouched sources")
		}
		// The touched page and its two ancestors (sub-domain, domain) are
		// dirty; everything else must be served from the prior run.
		if dirty := inc.SourcesProcessed; dirty != 3 {
			t.Errorf("processed %d sources, want 3 (page + 2 ancestors)", dirty)
		}
		if inc.SourcesReused+inc.SourcesProcessed != fresh.SourcesProcessed {
			t.Errorf("reused(%d)+processed(%d) != total sources %d",
				inc.SourcesReused, inc.SourcesProcessed, fresh.SourcesProcessed)
		}
	})
}

// TestPriorKBDelta: absorbing triples into the KB invalidates exactly
// the sources whose tables contain them. Sources sharing none of the
// absorbed facts keep their cached detection results even though the
// KB epoch moved.
func TestPriorKBDelta(t *testing.T) {
	withPartition(t, func(t *testing.T, corpus *fact.Corpus, existing *kb.KB, opts framework.Options, _ func()) {
		first := framework.Run(corpus, existing, opts)

		// Absorb the Atlas facts (present only under doc_lau_fam pages and
		// their ancestors).
		delta := []kb.Triple{
			corpus.Space.Intern("Atlas", "category", "rocket_family"),
			corpus.Space.Intern("Atlas", "sponsor", "NASA"),
			corpus.Space.Intern("Atlas", "started", "1957"),
		}
		for _, tr := range delta {
			if !existing.Add(tr) {
				t.Fatalf("delta triple %v was already in the KB", tr)
			}
		}

		incOpts := opts
		incOpts.Prior = first.NextPrior
		incOpts.Delta = delta
		inc := framework.Run(corpus, existing, incOpts)
		fresh := framework.Run(corpus, existing, exampleFrameworkOpts())
		outputsEqual(t, fresh, inc)

		if inc.SourcesReused == 0 {
			t.Fatal("sources without the absorbed facts must be reused")
		}
		if inc.SourcesProcessed == 0 {
			t.Fatal("sources carrying the absorbed facts must be re-detected")
		}
	})
}

// TestPriorPartialRunNoNextPrior: a canceled run must not hand out
// reusable state — its hierarchy is only partially consolidated.
func TestPriorPartialRunNoNextPrior(t *testing.T) {
	corpus, existing := exampleCorpus()
	ctx, cancel := contextCanceled()
	defer cancel()
	out, err := framework.RunContext(ctx, corpus, existing, exampleFrameworkOpts())
	if err == nil {
		t.Fatal("canceled run must report the context error")
	}
	if out.NextPrior != nil {
		t.Fatal("canceled run must not return NextPrior")
	}
}

// TestIncrementalAllocsFlat pins the dirty walk: a one-fact delta
// re-runs over a caller-held partition and allocates for the touched
// branch, not for every source. Quadrupling the corpus (10 → 40 Slim
// domains) must leave the per-delta allocation count nearly flat; a
// walk over every source allocates in proportion to the leaf count.
func TestIncrementalAllocsFlat(t *testing.T) {
	perDelta := func(domains int) float64 {
		w := datagen.ReVerbSlim(datagen.SlimParams{Domains: domains, GoodDomains: domains / 2, Seed: 7})
		corpus, existing := w.Corpus, w.KB
		part := fact.NewPartition()
		part.Extend(corpus)
		opts := framework.Options{Workers: 1, Obs: obs.New(), Partition: part}
		opts.Prior = framework.Run(corpus, existing, opts).NextPrior
		url := corpus.URLs.String(corpus.Facts[0].URL)
		n := 0
		return testing.AllocsPerRun(20, func() {
			corpus.Add(fact.Fact{
				Subject: fmt.Sprintf("delta entity %d", n), Predicate: "kind", Object: "delta kind",
				Confidence: 0.9, URL: url,
			})
			n++
			part.Extend(corpus)
			out := framework.Run(corpus, existing, opts)
			if out.SourcesReused == 0 {
				t.Fatal("one-fact delta reused nothing")
			}
			opts.Prior = out.NextPrior
		})
	}
	small, large := perDelta(10), perDelta(40)
	t.Logf("allocations per one-fact delta: %.0f at 10 domains, %.0f at 40", small, large)
	if large >= 1.5*small {
		t.Errorf("allocations per delta grew %.2fx from 10 to 40 domains (%.0f → %.0f), want < 1.5x",
			large/small, small, large)
	}
}

// TestOmitNextPrior: a run that builds no next prior releases each
// table once its parent has merged it, and its output is the same.
func TestOmitNextPrior(t *testing.T) {
	corpus, existing := stressCorpus(3, 4, 3, 3, 5)
	opts := framework.Options{Workers: 2, Obs: obs.New()}
	want := framework.Run(corpus, existing, opts)
	opts.OmitNextPrior = true
	got := framework.Run(corpus, existing, opts)
	outputsEqual(t, want, got)
	if got.NextPrior != nil {
		t.Fatal("OmitNextPrior run returned a NextPrior")
	}
	if got.SourcesProcessed != want.SourcesProcessed || got.SourcesReused != 0 {
		t.Errorf("processed %d reused %d, want %d and 0", got.SourcesProcessed, got.SourcesReused, want.SourcesProcessed)
	}
}
