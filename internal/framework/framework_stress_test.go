package framework_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"midas/internal/fact"
	"midas/internal/framework"
	"midas/internal/hierarchy"
	"midas/internal/kb"
	"midas/internal/obs"
	"midas/internal/slice"
)

// stressCorpus synthesizes a corpus spread over many sources at several
// URL depths: domains → sections → pages, with entity property sets
// drawn from a small pool so multi-entity slices form at every level.
// The generator is deterministic for a given seed.
func stressCorpus(seed int64, domains, sectionsPerDomain, pagesPerSection, entitiesPerPage int) (*fact.Corpus, *kb.KB) {
	rng := rand.New(rand.NewSource(seed))
	corpus := fact.NewCorpus(nil)
	existing := kb.New(corpus.Space)
	categories := []string{"rocket_family", "space_program", "launch_site", "satellite"}
	sponsors := []string{"NASA", "ESA", "JAXA", "CNSA"}
	ent := 0
	for d := 0; d < domains; d++ {
		for s := 0; s < sectionsPerDomain; s++ {
			for p := 0; p < pagesPerSection; p++ {
				url := fmt.Sprintf("http://d%d.example.org/sec%d/page%d.htm", d, s, p)
				for e := 0; e < entitiesPerPage; e++ {
					subj := fmt.Sprintf("entity-%d", ent)
					ent++
					cat := categories[rng.Intn(len(categories))]
					spo := sponsors[rng.Intn(len(sponsors))]
					corpus.Add(fact.Fact{Subject: subj, Predicate: "category", Object: cat, Confidence: 0.9, URL: url})
					corpus.Add(fact.Fact{Subject: subj, Predicate: "sponsor", Object: spo, Confidence: 0.9, URL: url})
					if rng.Intn(3) == 0 {
						corpus.Add(fact.Fact{Subject: subj, Predicate: "started", Object: fmt.Sprintf("%d", 1950+rng.Intn(8)), Confidence: 0.9, URL: url})
					}
					// A third of the facts are already known, so newness
					// masks vary across entities.
					if rng.Intn(3) == 0 {
						existing.AddStrings(subj, "category", cat)
					}
				}
			}
		}
	}
	return corpus, existing
}

// TestStressManySourcesOversubscribed drives the worker pool with far
// more workers than GOMAXPROCS over hundreds of sources. Under -race
// this exercises the sharding, the lock-free KB membership view, and
// the registry's atomics from many goroutines at once; the assertions
// pin the run's metrics to the framework's own accounting and check
// that concurrency does not change the result.
func TestStressManySourcesOversubscribed(t *testing.T) {
	corpus, existing := stressCorpus(1, 6, 5, 4, 6) // 120 leaf sources
	workers := 4*runtime.GOMAXPROCS(0) + 3

	reg := obs.New()
	out := framework.Run(corpus, existing, framework.Options{Workers: workers, Obs: reg})

	if out.SourcesProcessed == 0 || len(out.Slices) == 0 {
		t.Fatalf("stress run found nothing: %d sources, %d slices", out.SourcesProcessed, len(out.Slices))
	}
	// 120 pages + 30 sections + 6 domains = 156 detector invocations.
	if want := 156; out.SourcesProcessed != want {
		t.Errorf("SourcesProcessed = %d, want %d", out.SourcesProcessed, want)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["framework/sources_processed"]; got != int64(out.SourcesProcessed) {
		t.Errorf("obs sources_processed = %d, framework reported %d", got, out.SourcesProcessed)
	}
	if got := snap.Counters["framework/rounds"]; got != int64(out.Rounds) {
		t.Errorf("obs rounds = %d, framework reported %d", got, out.Rounds)
	}
	if got := snap.Counters["framework/final_slices"]; got != int64(len(out.Slices)) {
		t.Errorf("obs final_slices = %d, framework reported %d", got, len(out.Slices))
	}
	if got := snap.Timers["framework/shard"].Count; got != int64(out.SourcesProcessed) {
		t.Errorf("obs shard timer count = %d, want %d", got, out.SourcesProcessed)
	}
	if snap.Counters["hierarchy/nodes_generated"] == 0 {
		t.Error("obs hierarchy/nodes_generated = 0, want > 0")
	}
	// Consolidation tallies are a counter vector labeled by decision and
	// hierarchy depth; every kept decision at any depth counts.
	var kept int64
	for _, series := range snap.CounterVecs["framework/consolidate"].Series {
		switch series.Labels["decision"] {
		case "parents_kept", "children_kept":
			kept += series.Value
		}
	}
	if kept == 0 {
		t.Error("obs consolidation kept tallies = 0, want > 0")
	}
	if len(snap.TimerVecs["framework/depth"].Series) == 0 {
		t.Error("obs framework/depth timer vector is empty, want one series per depth")
	}
	if len(snap.CounterVecs["hierarchy/level/nodes_generated"].Series) == 0 {
		t.Error("obs hierarchy/level/nodes_generated vector is empty, want per-level series")
	}

	// The oversubscribed run must agree with a serial run: the pool
	// changes scheduling, never results.
	serialCorpus, serialKB := stressCorpus(1, 6, 5, 4, 6)
	serial := framework.Run(serialCorpus, serialKB, framework.Options{Workers: 1, Obs: obs.New()})
	if len(serial.Slices) != len(out.Slices) {
		t.Fatalf("parallel run found %d slices, serial run %d", len(out.Slices), len(serial.Slices))
	}
	for i := range serial.Slices {
		a, b := out.Slices[i], serial.Slices[i]
		if a.Source != b.Source || a.Profit != b.Profit || a.Facts != b.Facts || a.NewFacts != b.NewFacts {
			t.Errorf("slice %d differs: parallel %s %.4f (%d/%d) vs serial %s %.4f (%d/%d)",
				i, a.Source, a.Profit, a.Facts, a.NewFacts, b.Source, b.Profit, b.Facts, b.NewFacts)
		}
	}
}

// TestSourceGoroutinesBounded pins the fixed worker set: however many
// sources a round holds, the framework runs them on at most Workers
// goroutines. The detector samples the live goroutine count from inside
// every shard; per-source goroutines would show one per queued source.
func TestSourceGoroutinesBounded(t *testing.T) {
	corpus, existing := stressCorpus(1, 6, 5, 4, 6) // 120 leaf sources
	const workers = 2
	var peak atomic.Int64
	detect := func(*fact.Table, []hierarchy.Seed) []*slice.Slice {
		n := int64(runtime.NumGoroutine())
		for cur := peak.Load(); n > cur && !peak.CompareAndSwap(cur, n); cur = peak.Load() {
		}
		runtime.Gosched()
		return nil
	}
	before := runtime.NumGoroutine()
	out := framework.Run(corpus, existing, framework.Options{Workers: workers, Detect: detect, Obs: obs.New()})
	if want := 156; out.SourcesProcessed != want {
		t.Fatalf("SourcesProcessed = %d, want %d", out.SourcesProcessed, want)
	}
	// A few goroutines of slack for the runtime and the test harness.
	if limit := int64(before + workers + 3); peak.Load() > limit {
		t.Errorf("peak goroutines during the run = %d, want ≤ %d (%d before the run, Workers = %d)",
			peak.Load(), limit, before, workers)
	}
}
