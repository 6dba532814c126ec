package core_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"midas/internal/core"
	"midas/internal/datagen"
	"midas/internal/fact"
	"midas/internal/framework"
	"midas/internal/hierarchy"
	"midas/internal/kb"
	"midas/internal/obs"
	"midas/internal/slice"
)

// boundTable decodes raw into a small single-source table: every three
// bytes give one triple (entity, predicate, value) and whether the KB
// already holds it.
func boundTable(raw []byte) *fact.Table {
	sp := kb.NewSpace()
	existing := kb.New(sp)
	var triples []kb.Triple
	for i := 0; i+2 < len(raw) && len(triples) < 64; i += 3 {
		tr := sp.Intern(
			fmt.Sprintf("e%d", raw[i]%8),
			fmt.Sprintf("p%d", raw[i+1]%4),
			fmt.Sprintf("v%d", (raw[i+2]>>1)%3))
		triples = append(triples, tr)
		if raw[i+2]&1 == 1 {
			existing.Add(tr)
		}
	}
	return fact.Build("src.example.com/page", sp, triples, existing)
}

// boundSeeds turns mask bits into seeds shaped like the framework's: a
// prefix of one row's property set with every row that carries it.
func boundSeeds(table *fact.Table, mask byte) []hierarchy.Seed {
	var seeds []hierarchy.Seed
	for r := range table.Entities {
		if r >= 8 || mask&(1<<r) == 0 {
			continue
		}
		props := table.Entities[r].Props
		props = props[:1+r%len(props)]
		var rows []int32
		for i := range table.Entities {
			if hasAll(&table.Entities[i], props) {
				rows = append(rows, int32(i))
			}
		}
		seeds = append(seeds, hierarchy.Seed{Props: props, Entities: rows})
	}
	return seeds
}

func hasAll(e *fact.Entity, props []fact.Property) bool {
	for _, p := range props {
		if !e.HasProp(p) {
			return false
		}
	}
	return true
}

// checkBound runs MIDASalg on table with and without the source-level
// profit bound. A skipped source must be one whose forced full build
// selects nothing, and in every case the two answers must agree.
func checkBound(t *testing.T, table *fact.Table, seeds []hierarchy.Seed, cost slice.CostModel) (skipped bool) {
	t.Helper()
	reg := obs.New()
	got := core.DiscoverSeeded(table, seeds, core.Options{Cost: cost, Obs: reg})
	full := core.DiscoverSeededUnbounded(table, seeds, core.Options{Cost: cost, Obs: obs.New()})
	skipped = reg.Counter("core/sources_bounded").Value() == 1
	if skipped && len(full.Slices) > 0 {
		t.Fatalf("bound skipped a source whose full build selects %d slices (cost %+v, %d new of %d facts)",
			len(full.Slices), cost, table.TotalNew, table.TotalFacts)
	}
	if len(got.Slices) != len(full.Slices) {
		t.Fatalf("bounded run selects %d slices, full build %d", len(got.Slices), len(full.Slices))
	}
	for i := range got.Slices {
		if !reflect.DeepEqual(got.Slices[i], full.Slices[i]) {
			t.Fatalf("slice %d differs:\nbounded: %+v\nfull:    %+v", i, got.Slices[i], full.Slices[i])
		}
	}
	if got.TotalProfit != full.TotalProfit {
		t.Fatalf("total profit %v bounded vs %v full", got.TotalProfit, full.TotalProfit)
	}
	return skipped
}

// FuzzSourceProfitBound checks the source-level profit bound is exact:
// over random small tables, optional seeds and random cost models with
// non-negative coefficients, a source the bound skips never has a
// selectable slice.
func FuzzSourceProfitBound(f *testing.F) {
	def, ex := slice.DefaultCostModel(), slice.ExampleCostModel()
	f.Add([]byte{0, 0, 0, 0, 1, 2, 1, 0, 0, 1, 1, 2}, byte(0), def.Fp, def.Fc, def.Fd, def.Fv)
	f.Add([]byte{0, 0, 0, 0, 1, 2, 1, 0, 0, 1, 1, 2}, byte(3), ex.Fp, ex.Fc, ex.Fd, ex.Fv)
	f.Add([]byte{0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0}, byte(1), 1.7, 0.0, 0.0, 0.1)
	f.Add([]byte{}, byte(0), 0.0, 0.0, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, raw []byte, mask byte, fp, fc, fd, fv float64) {
		table := boundTable(raw)
		cost := slice.CostModel{Fp: math.Abs(fp), Fc: math.Abs(fc), Fd: math.Abs(fd), Fv: math.Abs(fv)}
		checkBound(t, table, boundSeeds(table, mask), cost)
	})
}

// TestSourceProfitBound pins when the bound applies: a page too small
// to pay for one slice is skipped under the paper's default costs, but
// not under the running example's, not with profit pruning ablated,
// and never with a NaN coefficient.
func TestSourceProfitBound(t *testing.T) {
	// Five entities × two predicates, all new: 10 new facts, so
	// 10·0.9 − 10 − 0.01 < 0 under the default model.
	var raw []byte
	for e := byte(0); e < 5; e++ {
		raw = append(raw, e, 0, 0, e, 1, 2)
	}
	table := boundTable(raw)
	if table.TotalNew != 10 {
		t.Fatalf("TotalNew = %d, want 10", table.TotalNew)
	}
	if !checkBound(t, table, nil, slice.DefaultCostModel()) {
		t.Error("default cost model: a 10-new-fact page is not bounded")
	}
	if checkBound(t, table, nil, slice.ExampleCostModel()) {
		t.Error("example cost model: a 10-new-fact page is bounded")
	}
	nan := slice.DefaultCostModel()
	nan.Fd = math.NaN()
	if checkBound(t, table, nil, nan) {
		t.Error("NaN coefficient: source bounded")
	}

	reg := obs.New()
	res := core.DiscoverTable(table, core.Options{Obs: reg})
	if len(res.Slices) != 0 || res.Hierarchy == nil || res.Hierarchy.MaxLevel != 0 || len(res.Hierarchy.Nodes()) != 0 {
		t.Errorf("bounded result = %+v, want empty with an empty hierarchy", res)
	}
	core.DiscoverTable(table, core.Options{Obs: reg, DisableProfitPrune: true})
	if n := reg.Counter("core/sources_bounded").Value(); n != 1 {
		t.Errorf("core/sources_bounded = %d, want 1 (the ablated run must build)", n)
	}
	if n := reg.Counter("core/sources_discovered").Value(); n != 1 {
		t.Errorf("core/sources_discovered = %d, want 1", n)
	}
}

// TestSourceProfitBoundFramework is the differential suite for the
// bound: the framework's output with it is slice-for-slice identical,
// profits included, to the output of forced full builds, on every
// datagen world.
func TestSourceProfitBoundFramework(t *testing.T) {
	reverb := datagen.ReVerbSlim(datagen.DefaultSlimParams(7))
	nell := datagen.NELLSlim(datagen.DefaultSlimParams(11))
	worlds := []struct {
		name   string
		corpus *fact.Corpus
		kb     *kb.KB
	}{
		{"reverb-slim", reverb.Corpus, reverb.KB},
		{"nell-slim", nell.Corpus, nell.KB},
		{"reverb-slim-minconf", reverb.Corpus.FilterConfidence(0.85), reverb.KB},
	}

	cost := slice.DefaultCostModel()
	for _, w := range worlds {
		t.Run(w.name, func(t *testing.T) {
			reg := obs.New()
			got := framework.Run(w.corpus, w.kb, framework.Options{Cost: cost, Obs: reg})
			full := framework.Run(w.corpus, w.kb, framework.Options{
				Cost: cost,
				Obs:  obs.New(),
				Detect: func(table *fact.Table, seeds []hierarchy.Seed) []*slice.Slice {
					return core.DiscoverSeededUnbounded(table, seeds, core.Options{Cost: cost, Obs: obs.New()}).Slices
				},
			})
			bounded := reg.Counter("core/sources_bounded").Value()
			if bounded == 0 {
				t.Fatal("no source was bounded; the comparison shows nothing")
			}
			if len(full.Slices) == 0 {
				t.Fatal("no slices selected; the comparison shows nothing")
			}
			t.Logf("%d of %d sources bounded, %d slices", bounded, got.SourcesProcessed, len(got.Slices))
			if len(got.Slices) != len(full.Slices) {
				t.Fatalf("%d slices with the bound, %d without", len(got.Slices), len(full.Slices))
			}
			for i := range got.Slices {
				if !reflect.DeepEqual(got.Slices[i], full.Slices[i]) {
					t.Fatalf("slice %d differs:\nbounded: %+v\nfull:    %+v", i, got.Slices[i], full.Slices[i])
				}
			}
			for i := range got.Levels {
				g, f := got.Levels[i], full.Levels[i]
				g.Seconds, f.Seconds = 0, 0
				if g != f {
					t.Errorf("level %d: %+v with the bound, %+v without", i, g, f)
				}
			}
		})
	}
}
