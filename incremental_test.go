// Differential proof of the delta-aware discovery path: a Session's
// incremental Discover — after arbitrary interleavings of AddFacts,
// Absorb, and untracked KB writes — must be result-identical,
// slice-for-slice including profits, to a from-scratch Discover over
// the same corpus and KB. The suite runs the Slim corpus generators at
// reduced scale for the interleavings and at full paper scale for the
// reuse-ratio acceptance bound.
package midas_test

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"midas"
	"midas/internal/datagen"
	"midas/internal/source"
)

// worldFacts resolves a generated world's interned corpus back to the
// public string form a Session ingests.
func worldFacts(w *datagen.World) []midas.Fact {
	out := make([]midas.Fact, 0, len(w.Corpus.Facts))
	for _, e := range w.Corpus.Facts {
		s, p, o := w.Corpus.Space.StringTriple(e.Triple)
		out = append(out, midas.Fact{
			Subject: s, Predicate: p, Object: o,
			Confidence: float64(e.Conf),
			URL:        w.Corpus.URLs.String(e.URL),
		})
	}
	return out
}

// splitHoldback partitions facts into a main batch and the facts of two
// sources held back to replay later as deltas. Sources are chosen
// deterministically (first two distinct normalized sources in corpus
// order).
func splitHoldback(facts []midas.Fact) (main, heldA, heldB []midas.Fact) {
	var srcA, srcB string
	for _, f := range facts {
		src := source.Normalize(f.URL)
		switch {
		case srcA == "" || src == srcA:
			srcA = src
			heldA = append(heldA, f)
		case srcB == "" || src == srcB:
			srcB = src
			heldB = append(heldB, f)
		default:
			main = append(main, f)
		}
	}
	return main, heldA, heldB
}

// moved copies facts onto the page url.
func moved(facts []midas.Fact, url string) []midas.Fact {
	out := make([]midas.Fact, len(facts))
	for i, f := range facts {
		f.URL = url
		out[i] = f
	}
	return out
}

func TestIncrementalDiscoverEquivalence(t *testing.T) {
	reverb := datagen.ReVerbSlim(datagen.SlimParams{Domains: 10, GoodDomains: 5, Seed: 42})
	worlds := []struct {
		name  string
		world *datagen.World
		// minConf > 0 filters the corpus before discovery, so the
		// framework cannot use the session's partition and walks every
		// source against the prior.
		minConf float64
	}{
		{"reverb-slim", reverb, 0},
		{"nell-slim", datagen.NELLSlim(datagen.SlimParams{Domains: 10, GoodDomains: 5, Seed: 43}), 0},
		{"reverb-slim-minconf", reverb, 0.85},
	}
	workerSet := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workerSet = append(workerSet, n)
	}
	for _, tc := range worlds {
		facts := worldFacts(tc.world)
		for _, workers := range workerSet {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				opts := &midas.Options{Workers: workers, MinConfidence: tc.minConf}
				sess := midas.NewSession(nil, opts)
				var log []midas.Fact
				add := func(fs []midas.Fact) {
					sess.AddFacts(fs...)
					log = append(log, fs...)
				}
				// check runs the session's incremental discovery and
				// compares it against a from-scratch reference over an
				// identical corpus and the session's live KB.
				check := func(label string) *midas.Result {
					t.Helper()
					res, err := sess.DiscoverContext(context.Background())
					if err != nil {
						t.Fatalf("%s: discover: %v", label, err)
					}
					ref := midas.NewCorpus(sess.KB())
					for _, f := range log {
						ref.Add(f)
					}
					refRes := midas.Discover(ref, sess.KB(), opts)
					if len(res.Slices) != len(refRes.Slices) {
						t.Fatalf("%s: %d slices incremental vs %d from scratch",
							label, len(res.Slices), len(refRes.Slices))
					}
					for i := range res.Slices {
						if !reflect.DeepEqual(res.Slices[i], refRes.Slices[i]) {
							t.Fatalf("%s: slice %d differs\nincremental: %+v\nfrom scratch: %+v",
								label, i, res.Slices[i], refRes.Slices[i])
						}
					}
					return res
				}

				mainBatch, heldA, heldB := splitHoldback(facts)
				if len(heldA) == 0 || len(heldB) == 0 {
					t.Fatal("holdback split produced empty deltas")
				}

				add(mainBatch)
				r := check("prime")
				if r.SourcesReused != 0 {
					t.Errorf("prime run reused %d sources, want 0", r.SourcesReused)
				}

				r = check("steady")
				if r.SourcesProcessed != 0 || r.SourcesReused == 0 {
					t.Errorf("steady rerun: processed %d reused %d, want 0/>0",
						r.SourcesProcessed, r.SourcesReused)
				}

				add(heldA)
				r = check("facts-delta")
				if r.SourcesReused == 0 {
					t.Error("facts delta must reuse the untouched sources")
				}

				if len(r.Slices) == 0 {
					t.Fatal("no slices to absorb")
				}
				top := r.Slices[0]
				if sess.Absorb(top) == 0 {
					t.Fatalf("absorbing %q added nothing", top.Source)
				}
				r = check("absorb")
				if r.SourcesReused == 0 {
					t.Error("absorb must keep sources without the absorbed facts reused")
				}

				// Absorbing the same slice again adds no triples but
				// still bumps the KB epoch; the empty delta proves the
				// KB answer set unchanged, so everything is reused.
				if n := sess.Absorb(top); n != 0 {
					t.Fatalf("duplicate absorb added %d facts", n)
				}
				r = check("absorb-dup")
				if r.SourcesProcessed != 0 {
					t.Errorf("duplicate absorb forced %d re-detections, want 0", r.SourcesProcessed)
				}

				// Mixed mutation: new facts on one source plus another
				// absorption before the next discovery.
				add(heldB)
				if len(r.Slices) > 1 {
					sess.Absorb(r.Slices[len(r.Slices)-1])
				}
				r = check("mixed")

				// A delta that opens a brand-new domain: a copy of the
				// facts behind the current top slice, so the new domain
				// must surface a slice of its own. Only the new page and
				// its new ancestors are processed.
				if len(r.Slices) == 0 {
					t.Fatal("no slice to copy onto a new domain")
				}
				var topFacts []midas.Fact
				for _, f := range log {
					if src := source.Normalize(f.URL); src == r.Slices[0].Source || strings.HasPrefix(src, r.Slices[0].Source+"/") {
						topFacts = append(topFacts, f)
					}
				}
				const newDomain = "brand-new-domain.example"
				newPage := "http://" + newDomain + "/section/page.htm"
				add(moved(topFacts, newPage))
				r = check("new-domain")
				if want := source.Depth(source.Normalize(newPage)); r.SourcesProcessed != want {
					t.Errorf("new domain: processed %d sources, want %d (the new page and its new ancestors)",
						r.SourcesProcessed, want)
				}
				if !slices.ContainsFunc(r.Slices, func(sl midas.Slice) bool { return source.Domain(sl.Source) == newDomain }) {
					t.Error("new domain surfaced no slice")
				}

				// A delta on a new deep path under an existing domain
				// creates new intermediate ancestors; the domain itself
				// is the only existing source it dirties.
				domain := source.Domain(source.Normalize(heldB[0].URL))
				deepPage := "http://" + domain + "/fresh/branch/leaf.htm"
				add(moved(heldB, deepPage))
				r = check("deep-path")
				if want := source.Depth(source.Normalize(deepPage)); r.SourcesProcessed != want {
					t.Errorf("deep path: processed %d sources, want %d (three new sources and their domain)",
						r.SourcesProcessed, want)
				}

				// An untracked KB write (through KB()) breaks the delta
				// trail: the next discovery must fall back to a full
				// rebuild — and still match from scratch.
				sess.KB().Add("untracked subject", "came from", "outside the session")
				r = check("untracked-kb-write")
				if r.SourcesReused != 0 {
					t.Errorf("untracked KB write reused %d sources, want 0 (trail broken)", r.SourcesReused)
				}

				check("recovered")
			})
		}
	}
}

// TestIncrementalFuseDroppedPage: fusion can remove every fact of a
// page when a more confident conflicting value for the same subject and
// predicate arrives on another domain. The page then drops out of the
// walk, and its parent's prior table — which still holds the page's
// fact — must not be reused: the incremental result must match a
// from-scratch discovery, profits included.
func TestIncrementalFuseDroppedPage(t *testing.T) {
	opts := &midas.Options{Cost: midas.CostModel{Fp: 1, Fc: 0.001, Fd: 0.01, Fv: 0.1}, Fuse: true, Workers: 1}
	var log []midas.Fact
	for i := 0; i < 20; i++ {
		log = append(log, midas.Fact{Subject: fmt.Sprintf("star %d", i), Predicate: "class", Object: "dwarf",
			Confidence: 0.9, URL: fmt.Sprintf("http://astro.example.org/stars/%d.htm", i)})
	}
	log = append(log, midas.Fact{Subject: "ghost", Predicate: "class", Object: "giant",
		Confidence: 0.5, URL: "http://astro.example.org/stars/ghost.htm"})
	sess := midas.NewSession(nil, opts)
	sess.AddFacts(log...)
	if _, err := sess.DiscoverContext(context.Background()); err != nil {
		t.Fatal(err)
	}

	conflict := midas.Fact{Subject: "ghost", Predicate: "class", Object: "dwarf",
		Confidence: 0.9, URL: "http://other.example.com/ghost.htm"}
	sess.AddFacts(conflict)
	log = append(log, conflict)
	res, err := sess.DiscoverContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ref := midas.NewCorpus(sess.KB())
	for _, f := range log {
		ref.Add(f)
	}
	want := midas.Discover(ref, sess.KB(), opts)
	if len(want.Slices) == 0 {
		t.Fatal("from-scratch discovery found no slice")
	}
	if !reflect.DeepEqual(res.Slices, want.Slices) {
		t.Fatalf("incremental differs from scratch\nincremental: %+v\nfrom scratch: %+v", res.Slices, want.Slices)
	}
}

// TestIncrementalReuseRatio pins the acceptance bound: on the paper's
// 100-domain Slim corpus, re-discovering after a delta confined to one
// source must answer at least 90% of the sources from the prior run.
func TestIncrementalReuseRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale Slim corpus")
	}
	w := datagen.ReVerbSlim(datagen.DefaultSlimParams(7))
	facts := worldFacts(w)
	sess := midas.NewSession(nil, nil)
	sess.AddFacts(facts...)
	if _, err := sess.DiscoverContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	sess.AddFacts(midas.Fact{
		Subject: "delta entity", Predicate: "kind", Object: "delta kind",
		Confidence: 0.9, URL: facts[0].URL,
	})
	res, err := sess.DiscoverContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	total := res.SourcesReused + res.SourcesProcessed
	if total == 0 {
		t.Fatal("no sources seen")
	}
	ratio := float64(res.SourcesReused) / float64(total)
	if ratio < 0.9 {
		t.Fatalf("reuse ratio %.3f (%d/%d) below the 0.9 floor",
			ratio, res.SourcesReused, total)
	}
}

// TestFingerprintAbsorbEpoch pins the epoch fold: an Absorb that adds
// only already-known triples leaves the KB size unchanged but must
// still move the session fingerprint, or the serve cache would return
// a stale result for a session that saw a write.
func TestFingerprintAbsorbEpoch(t *testing.T) {
	sess := midas.NewSession(nil, nil)
	sess.AddFacts(sessionCorpusFacts()...)
	res := sess.Discover()
	if len(res.Slices) == 0 {
		t.Fatal("no slices discovered")
	}
	if sess.Absorb(res.Slices[0]) == 0 {
		t.Fatal("first absorb added nothing")
	}
	fp1 := sess.Fingerprint()
	if n := sess.Absorb(res.Slices[0]); n != 0 {
		t.Fatalf("duplicate absorb added %d facts", n)
	}
	if fp2 := sess.Fingerprint(); fp2 == fp1 {
		t.Fatal("duplicate absorb (size unchanged) must still move the fingerprint")
	}
}

// TestSourceFingerprintTracking: SourceFingerprints moves only for the
// sources AddFacts touched.
func TestSourceFingerprintTracking(t *testing.T) {
	sess := midas.NewSession(nil, nil)
	sess.AddFacts(sessionCorpusFacts()...)
	before := sess.SourceFingerprints()
	if len(before) == 0 {
		t.Fatal("no source fingerprints")
	}
	sess.Discover()

	touched := midas.Fact{
		Subject: "fresh entity", Predicate: "kind", Object: "fresh kind",
		Confidence: 0.9, URL: "http://site0.example.com/wiki/e0.htm",
	}
	sess.AddFacts(touched)
	want := source.Normalize(touched.URL)
	after := sess.SourceFingerprints()
	changed := 0
	for src, fp := range before {
		if after[src] != fp {
			changed++
			if src != want {
				t.Errorf("untouched source %s changed fingerprint", src)
			}
		}
	}
	if changed != 1 {
		t.Errorf("%d source fingerprints changed, want exactly 1", changed)
	}
}
