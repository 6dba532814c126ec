// Package core implements MIDASalg, the paper's single-source slice
// discovery algorithm (Section III-A).
//
// MIDASalg works in two steps. Step 1 (package hierarchy) constructs the
// slice lattice bottom-up with canonicity and profit-lower-bound pruning.
// Step 2 (this package, Algorithm 1) traverses the trimmed hierarchy
// top-down — coarsest slices first, since they cover more facts — adding
// every valid, uncovered slice that improves the total profit of the
// result set and marking its descendants covered.
package core

import (
	"context"
	"sort"
	"strconv"
	"time"

	"midas/internal/dict"
	"midas/internal/fact"
	"midas/internal/hierarchy"
	"midas/internal/idset"
	"midas/internal/kb"
	"midas/internal/obs"
	"midas/internal/slice"
)

// Options configures MIDASalg.
type Options struct {
	// Cost is the profit model; the zero value means the paper's
	// defaults (f_p=10, f_c=0.001, f_d=0.01, f_v=0.1).
	Cost slice.CostModel
	// MaxPropsPerEntity and MaxInitCombos bound initial-slice
	// generation; zero means the hierarchy package defaults.
	MaxPropsPerEntity int
	MaxInitCombos     int
	// Workers bounds within-source lattice parallelism (see
	// hierarchy.Options); 0 means the hierarchy package default. Any
	// value produces bit-identical results.
	Workers int
	// WorkerPool optionally shares a worker-token budget with other
	// concurrent discoveries; the framework passes its source-level pool
	// here so both levels of parallelism draw on one budget.
	WorkerPool *hierarchy.Pool
	// Ablation switches (see DESIGN.md §4).
	DisableCanonicalPrune bool
	DisableProfitPrune    bool
	// ProfitOrderTraversal visits each level's nodes in decreasing
	// profit order instead of the paper's deterministic property-key
	// order. On the evaluation corpora the two are indistinguishable;
	// on dense adversarial tables key order tiles overlapping slices
	// slightly better (see the ablation-traversal bench), so the
	// paper's order is the default.
	ProfitOrderTraversal bool
	// Obs receives per-source discovery metrics (phase timings, slice
	// profits); nil falls back to the process-wide obs.Default().
	Obs *obs.Registry
}

func (o Options) cost() slice.CostModel {
	if o.Cost == (slice.CostModel{}) {
		return slice.DefaultCostModel()
	}
	return o.Cost
}

// Result is the output of MIDASalg on one web source.
type Result struct {
	// Slices are the reported slices, in traversal order (coarsest
	// first). Their total profit is ≥ the profit of any individual
	// slice, and every slice improved the running total when added.
	Slices []*slice.Slice
	// Nodes are the hierarchy nodes backing Slices, index-aligned.
	Nodes []*hierarchy.Node
	// TotalProfit is f over the reported set.
	TotalProfit float64
	// Stats reports hierarchy-construction effort.
	Stats hierarchy.Stats
	// Hierarchy is the trimmed lattice (retained for diagnostics and for
	// the framework's consolidation step).
	Hierarchy *hierarchy.Hierarchy
}

// Discover runs MIDASalg over the extracted triples of a single web
// source, classifying newness against existing (nil = empty KB).
func Discover(source string, space *kb.Space, triples []kb.Triple, existing *kb.KB, opts Options) *Result {
	table := fact.Build(source, space, triples, existing)
	return DiscoverTable(table, opts)
}

// DiscoverTable runs MIDASalg over a prepared fact table.
func DiscoverTable(table *fact.Table, opts Options) *Result {
	return DiscoverSeeded(table, nil, opts)
}

// DiscoverSeeded runs MIDASalg with extra initial slices, used by the
// multi-source framework to start a parent source's hierarchy from the
// slices already detected in its children.
func DiscoverSeeded(table *fact.Table, seeds []hierarchy.Seed, opts Options) *Result {
	return DiscoverSeededContext(context.Background(), table, seeds, opts)
}

// DiscoverSeededContext is DiscoverSeeded with span tracing: when ctx
// carries a span (the framework's per-source shard span), hierarchy
// construction and the top-down traversal each record a child span.
//
// A source whose table cannot yield a profitable slice skips both
// steps (see unprofitable): the result is empty, the skip counts in
// core/sources_bounded, and the current span of ctx gets bounded=1.
func DiscoverSeededContext(ctx context.Context, table *fact.Table, seeds []hierarchy.Seed, opts Options) *Result {
	return discover(ctx, table, seeds, opts, true)
}

// discover runs MIDASalg; bound enables the source-level profit bound,
// which only tests turn off, to check that it is exact.
func discover(ctx context.Context, table *fact.Table, seeds []hierarchy.Seed, opts Options, bound bool) *Result {
	reg := opts.Obs.OrDefault()
	cost := opts.cost()
	if bound && !opts.DisableProfitPrune && unprofitable(table, cost) {
		reg.Counter("core/sources_bounded").Inc()
		obs.SpanFromContext(ctx).Arg("bounded", "1")
		return &Result{Hierarchy: &hierarchy.Hierarchy{Levels: make([][]*hierarchy.Node, 1)}}
	}
	start := time.Now()
	_, buildSpan := obs.StartSpan(ctx, "hierarchy/build")
	b := &hierarchy.Builder{
		Table:                 table,
		Cost:                  cost,
		MaxPropsPerEntity:     opts.MaxPropsPerEntity,
		MaxInitCombos:         opts.MaxInitCombos,
		DisableCanonicalPrune: opts.DisableCanonicalPrune,
		DisableProfitPrune:    opts.DisableProfitPrune,
		Options:               hierarchy.Options{Workers: opts.Workers, Pool: opts.WorkerPool},
		Obs:                   opts.Obs,
	}
	h := b.Build(seeds)
	buildSpan.Arg("nodes", strconv.Itoa(h.Stats.NodesCreated)).
		Arg("pruned_canonicity", strconv.Itoa(h.Stats.NodesRemoved)).
		Arg("pruned_profit_bound", strconv.Itoa(h.Stats.NodesInvalid)).
		End()
	reg.Timer("core/build_hierarchy").Observe(time.Since(start))
	res := &Result{Stats: h.Stats, Hierarchy: h}
	_, traverseSpan := obs.StartSpan(ctx, "core/traverse")
	defer func() { traverseSpan.Arg("slices", strconv.Itoa(len(res.Slices))).End() }()
	defer func(traverseStart time.Time) {
		reg.Timer("core/traverse").Observe(time.Since(traverseStart))
		reg.Timer("core/discover").Observe(time.Since(start))
		reg.Counter("core/sources_discovered").Inc()
		reg.Counter("core/slices_selected").Add(int64(len(res.Slices)))
		reg.Histogram("core/slices_per_source").Observe(float64(len(res.Slices)))
		for _, sl := range res.Slices {
			reg.Histogram("core/slice_profit").Observe(sl.Profit)
			reg.Histogram("core/slice_entities").Observe(float64(sl.Entities.Len()))
		}
	}(time.Now())
	if h.MaxLevel == 0 {
		return res
	}

	entFacts, entNew := b.EntityStats()
	// Entity indexes are dense table rows, so coverage is a flat bitmap
	// rather than a hash set.
	covered := make([]bool, len(table.Entities))
	first := true

	// Algorithm 1: top-down, level by level; within a level, the
	// paper's deterministic order (by property key) unless the
	// profit-order variant is requested.
	for l := 1; l <= h.MaxLevel; l++ {
		level := h.Levels[l]
		if opts.ProfitOrderTraversal {
			level = make([]*hierarchy.Node, len(h.Levels[l]))
			copy(level, h.Levels[l])
			sort.SliceStable(level, func(i, j int) bool { return level[i].Profit > level[j].Profit })
		}
		for _, n := range level {
			if n.Valid && !n.Covered {
				dFacts, dNew := 0, 0
				for _, e := range n.Entities.Values() {
					if !covered[e] {
						dFacts += int(entFacts[e])
						dNew += int(entNew[e])
					}
				}
				delta := float64(dNew)*(1-cost.Fv) - cost.Fp - cost.Fd*float64(dFacts)
				if first {
					delta -= cost.Fc * float64(table.TotalFacts)
				}
				if delta > 0 {
					first = false
					res.TotalProfit += delta
					for _, e := range n.Entities.Values() {
						covered[e] = true
					}
					res.Nodes = append(res.Nodes, n)
					res.Slices = append(res.Slices, nodeToSlice(table, n))
					n.Covered = true
				}
			}
			if n.Covered {
				for _, c := range n.Children {
					c.Covered = true
				}
			}
		}
	}
	return res
}

// unprofitable reports that the traversal below cannot select any slice
// of table, so the hierarchy need not be built. The traversal selects
// its first slice only if
//
//	dNew·(1−f_v) − f_p − f_d·dFacts − f_c·|T_W| > 0
//
// and every later slice needs a first one. With dNew ≤ TotalNew,
// f_v ≤ 1, f_d ≥ 0 and f_c ≥ 0, that float expression is at most
// ub = TotalNew·(1−f_v) − f_p − f_c·|T_W| term by term, because IEEE
// rounding is monotone; so ub ≤ 0 rules every slice out, seeds
// included. A NaN coefficient fails a guard or makes ub NaN, and never
// skips.
func unprofitable(table *fact.Table, c slice.CostModel) bool {
	if !(c.Fv <= 1 && c.Fd >= 0 && c.Fc >= 0) {
		return false
	}
	ub := float64(table.TotalNew)*(1-c.Fv) - c.Fp - c.Fc*float64(table.TotalFacts)
	return ub <= 0
}

func nodeToSlice(table *fact.Table, n *hierarchy.Node) *slice.Slice {
	// Table rows are sorted by subject ID, so mapping ascending row
	// indexes to subjects yields an already-sorted set.
	rows := n.Entities.Values()
	ents := make([]dict.ID, len(rows))
	for i, e := range rows {
		ents[i] = table.Entities[e].Subject
	}
	props := make([]fact.Property, len(n.Props))
	copy(props, n.Props)
	return &slice.Slice{
		Source:   table.Source,
		Props:    props,
		Entities: idset.FromSorted(ents),
		Facts:    n.Facts,
		NewFacts: n.NewFacts,
		Profit:   n.Profit,
	}
}
