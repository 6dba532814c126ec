// Package framework implements the highly-parallelizable multi-source
// pipeline of Section III-B: shard → detect → consolidate, iterated up
// the URL hierarchy.
//
// Each round processes the deepest unprocessed web sources. The facts of
// a source and the slices already detected in its children are sharded
// by the one-level-coarser parent URL; the detector (MIDASalg by
// default, but the phase is pluggable and the baselines run under the
// same framework) re-runs at the parent granularity seeded with the
// child slices; consolidation then compares parent slices against the
// child slices they cover and keeps whichever side yields higher profit.
// Surviving slices propagate upward; slices surviving at the domain
// level are the framework's output.
//
// Runs are incremental. The corpus is append-only, so a caller that
// keeps one fact.Partition across runs (Options.Partition) and hands
// each run the previous run's Prior gets a dirty walk: only the leaves
// that gained facts, the sources whose table holds a triple the KB
// absorbed since (Options.Delta), and their ancestors are visited, and
// every other source keeps its prior tables and surviving slices
// untouched. A run's cost is then proportional to the delta, not to
// the corpus. Without a matching partition every source is visited and
// the prior still spares the unchanged ones their detection.
//
// The paper runs this topology on MapReduce; here each round's shards
// are dispatched to a local worker pool, which preserves the
// communication structure (keyed sharding, independent detection per
// key) at laptop scale. The pool is a fixed set of min(Workers, dirty
// sources) goroutines per round that pull shards off a shared cursor,
// each holding one token of the run's hierarchy.Pool per shard, so a
// round over thousands of sources starts only a handful of goroutines
// and the lattice build reuses their grown stacks.
package framework

import (
	"context"
	"maps"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"midas/internal/core"
	"midas/internal/dict"
	"midas/internal/fact"
	"midas/internal/hierarchy"
	"midas/internal/kb"
	"midas/internal/obs"
	"midas/internal/slice"
	"midas/internal/source"
)

// Detector runs slice detection over one web source's fact table, seeded
// with the slices detected in its children (seeds hold row indexes into
// the table). Implementations must be safe for concurrent use.
type Detector func(table *fact.Table, seeds []hierarchy.Seed) []*slice.Slice

// Options configures a framework run.
type Options struct {
	// Cost is the profit model used for consolidation; zero means the
	// paper's defaults. It should match the detector's model.
	Cost slice.CostModel
	// Workers bounds the worker pool; 0 means GOMAXPROCS.
	Workers int
	// Detect is the detection phase; nil means MIDASalg with Core.
	Detect Detector
	// Core configures the default MIDASalg detector.
	Core core.Options
	// Obs receives run metrics: per-round shard counts and timings,
	// worker utilization, consolidation keep/drop tallies, and the
	// per-source metrics of the packages underneath. nil falls back to
	// the process-wide obs.Default().
	Obs *obs.Registry
	// Trace receives run spans (the whole run, each hierarchy round,
	// each source's shard with its detect/consolidate phases), exported
	// as Chrome trace-event JSON via the binaries' -trace flag. nil
	// falls back to obs.DefaultTracer(), which is itself nil (tracing
	// disabled, zero overhead) unless a binary enabled it.
	Trace *obs.Tracer
	// Prior is the reusable state of the previous run over the same
	// (append-only) corpus lineage, as returned in Output.NextPrior.
	// Sources whose leaf facts, children, and newness are unchanged skip
	// table building and detection and feed their cached slices straight
	// into consolidation. nil runs from scratch. Prior is only valid
	// when the run's options (cost model, detector, core settings) match
	// the run that produced it.
	Prior *Prior
	// Delta lists the triples added to the KB since Prior was captured
	// (i.e. since the KB was at Prior.Epoch). It must be complete — a
	// caller that cannot enumerate every triple added in between must
	// pass Prior == nil instead. An empty Delta with a non-nil Prior
	// asserts the KB's answer set is unchanged since Prior.Epoch.
	Delta []kb.Triple
	// Partition, when non-nil, is the leaf partition of the corpus,
	// already extended over every one of its facts. A caller that keeps
	// one partition across the runs of a growing corpus lets a run
	// whose Prior was computed from the same partition walk only the
	// sources the new facts and Delta can reach. nil partitions the
	// corpus afresh and walks every source.
	Partition *fact.Partition
	// OmitNextPrior leaves Output.NextPrior nil. A run that will not
	// seed another then releases each source's table once its parent
	// has merged it, instead of holding every table to the end.
	OmitNextPrior bool
}

// Prior carries the per-source state of a completed framework run:
// each source's fact table and consolidated surviving slices, keyed by
// the source's leaf-fact fingerprint, with newness annotations valid
// for the KB at Epoch. It is produced by RunContext (Output.NextPrior)
// and consumed opaquely via Options.Prior. A Prior is never mutated:
// the next run derives its source map from this one and overwrites
// only the sources it visits.
type Prior struct {
	// Epoch is the KB epoch (kb.KB.Epoch) the run's newness
	// annotations were computed against.
	Epoch   uint64
	sources stateMap
	// part is the partition the run was handed (nil if none) and facts
	// the number of corpus facts it held: a later run over the same
	// partition finds its touched leaves among the facts appended since.
	part  *fact.Partition
	facts int
	// roots lists the domain-level sources, sorted.
	roots []string
	// levels[d] tallies the sources and surviving slices at depth d.
	levels []levelTally
}

// levelTally counts one hierarchy depth's sources and the slices
// surviving their consolidation.
type levelTally struct{ sources, slices int }

// NumSources returns the number of per-source entries retained.
func (p *Prior) NumSources() int { return p.sources.n }

// stateMap maps sources to their states: a base map that is no longer
// written plus an overlay of the entries written since, so the next
// run copies only the overlay. Once the overlay outgrows 1/32 of the
// base, derive folds the two into a new base. That keeps the amortized
// copy per run proportional to the sources the runs wrote, and bounds
// the superseded states the base keeps reachable.
type stateMap struct {
	base, over map[string]*sourceState
	n          int // distinct sources
}

func (m *stateMap) get(src string) *sourceState {
	if st, ok := m.over[src]; ok {
		return st
	}
	return m.base[src]
}

func (m *stateMap) put(src string, st *sourceState) {
	if m.get(src) == nil {
		m.n++
	}
	m.over[src] = st
}

// derive returns a map with m's entries for the next run to write,
// leaving m as it is.
func (m *stateMap) derive() stateMap {
	base := m.base
	switch {
	case len(base) == 0:
		base = m.over // no longer written: it becomes the shared base
	case len(m.over) > len(base)/32:
		base = maps.Clone(base)
		maps.Copy(base, m.over)
	default:
		return stateMap{base: base, over: maps.Clone(m.over), n: m.n}
	}
	return stateMap{base: base, over: make(map[string]*sourceState), n: m.n}
}

// sourceState is one source's cached results. leafFP fingerprints the
// source's own (leaf) triples in corpus order — 0 for a source that had
// none and exists only as a parent of deeper sources. children lists
// the source's child sources, sorted.
type sourceState struct {
	leafFP    uint64
	table     *fact.Table
	surviving []scored
	children  []string
}

// reusePlan describes how much of the prior run one source may reuse
// this round. The zero value means none: rebuild the table, re-detect,
// re-consolidate.
type reusePlan struct {
	// state, when non-nil, proves the source's table structure is
	// unchanged: its leaf fingerprint matches and every child's table
	// was itself reused — build/merge can be skipped.
	state *sourceState
	// reannotate is set when a Delta triple appears in the table: the
	// structure stands but the newness bits must be recomputed against
	// the grown KB.
	reannotate bool
	// full short-circuits the source entirely: table clean, newness
	// untouched by Delta, and every child's surviving slices identical
	// to the prior run — so detection and consolidation would reproduce
	// the cached surviving slices exactly.
	full bool
}

// planReuse evaluates the reuse ladder for one source. A transform over
// the corpus (fusion dropping a page's only fact) can remove a child as
// well as add one, so the child set must equal the prior run's before
// "every child reused its table" says the table is unchanged.
func planReuse(prior *Prior, src string, pe *pendingEntry, leafFP uint64, delta []kb.Triple) reusePlan {
	if prior == nil {
		return reusePlan{}
	}
	st := prior.sources.get(src)
	if st == nil || st.leafFP != leafFP || !slices.Equal(pe.names, st.children) {
		return reusePlan{}
	}
	childrenSame := true
	for _, c := range pe.children {
		if !c.tableReused {
			return reusePlan{}
		}
		if !c.survivingSame {
			childrenSame = false
		}
	}
	annValid := true
	for _, t := range delta {
		if st.table.ContainsFact(t) {
			annValid = false
			break
		}
	}
	return reusePlan{state: st, reannotate: !annValid, full: annValid && childrenSame}
}

func (o Options) cost() slice.CostModel {
	if o.Cost == (slice.CostModel{}) {
		return slice.DefaultCostModel()
	}
	return o.Cost
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// detectFunc is the internal detection entry point: a Detector plus the
// context that carries the current span, so the default MIDASalg path
// can parent its hierarchy-build and traversal spans to the source's
// shard span. Custom Detectors keep the public two-argument signature.
type detectFunc func(ctx context.Context, table *fact.Table, seeds []hierarchy.Seed) []*slice.Slice

// detector builds the detection entry point. pool is the run's shared
// worker budget: the default MIDASalg detector hands it to the lattice
// builder (core.Options.WorkerPool), so within-source parallelism only
// fans out over tokens the source-level dispatch isn't using.
func (o Options) detector(pool *hierarchy.Pool) detectFunc {
	if o.Detect != nil {
		return func(_ context.Context, table *fact.Table, seeds []hierarchy.Seed) []*slice.Slice {
			return o.Detect(table, seeds)
		}
	}
	copts := o.Core
	if copts.Cost == (slice.CostModel{}) {
		copts.Cost = o.cost()
	}
	if copts.Obs == nil {
		copts.Obs = o.Obs
	}
	if copts.WorkerPool == nil {
		copts.WorkerPool = pool
		if copts.Workers == 0 {
			copts.Workers = o.workers()
		}
	}
	return func(ctx context.Context, table *fact.Table, seeds []hierarchy.Seed) []*slice.Slice {
		return core.DiscoverSeededContext(ctx, table, seeds, copts).Slices
	}
}

// Output is the result of a framework run.
type Output struct {
	// Slices are the surviving slices across all sources, sorted by
	// decreasing profit.
	Slices []*slice.Slice
	// FactSets holds each slice's materialized fact set (sorted),
	// index-aligned with Slices; the evaluation harness matches slices
	// by fact-set Jaccard similarity.
	FactSets [][]kb.Triple
	// Rounds is the number of hierarchy levels processed.
	Rounds int
	// SourcesProcessed counts detector invocations (one per web source
	// at every granularity that had facts or child slices). Sources
	// answered from Prior do not count; see SourcesReused.
	SourcesProcessed int
	// SourcesReused counts sources whose detection was skipped entirely
	// because the prior run's surviving slices were proven still valid.
	SourcesReused int
	// NextPrior is the reusable state of this run, to feed into the next
	// run's Options.Prior. It is nil when the run ended early (context
	// cancellation leaves the hierarchy partially processed).
	NextPrior *Prior
	// Levels reports per-round effort, deepest level first.
	Levels []LevelStat
}

// LevelStat is the per-hierarchy-level effort breakdown of a run.
type LevelStat struct {
	// Depth is the URL-hierarchy depth processed this round (1 = domain).
	Depth int
	// Sources is the number of shards (web sources) detected.
	Sources int
	// Slices is the number of slices surviving this round's
	// consolidation.
	Slices int
	// Reused is how many of Sources were answered from the prior run
	// without invoking the detector.
	Reused int
	// Seconds is the wall time of the round (shard + detect +
	// consolidate).
	Seconds float64
}

// scored couples a slice with its materialized fact set and the fact
// count of its origin source, both needed for consolidation.
type scored struct {
	sl          *slice.Slice
	facts       []kb.Triple
	sourceTotal int
}

// done is a completed source as its parent sees it: its state plus two
// reuse flags that carry provenance to the parent's planReuse.
// tableReused asserts the table (rows and newness bits alike) is
// byte-identical to the prior run's, survivingSame that the surviving
// slices are too.
type done struct {
	state         *sourceState
	tableReused   bool
	survivingSame bool
}

// pendingEntry holds what a source's round needs: its leaf facts and
// fingerprint, and its completed children in source order.
type pendingEntry struct {
	triples  []kb.Triple
	leafFP   uint64
	children []done
	names    []string // children's sources, index-aligned with children
}

// walk is the set of sources a run visits, closed upward through
// source.Parent. A full walk visits every source of the corpus. When the
// prior run read the same partition, the walk visits only the sources
// the delta can have changed — leaves that gained facts and prior
// sources whose table holds a Delta triple, plus their ancestors —
// and every other source keeps its prior state, which is exactly what
// planReuse would have answered for it.
type walk struct {
	// base is the prior run an incremental walk extends; nil for a
	// full walk.
	base *Prior
	// kids maps each visited source to its visited children.
	kids map[string][]string
	// byDepth[d] lists the visited sources of depth d, sorted.
	byDepth [][]string
}

func newWalk(corpus *fact.Corpus, part *fact.Partition, prior *Prior, delta []kb.Triple) *walk {
	w := &walk{kids: make(map[string][]string)}
	if prior != nil && prior.part != nil && prior.part == part && prior.facts <= part.Len() {
		w.base = prior
		for _, e := range corpus.Facts[prior.facts:part.Len()] {
			if src := part.Source(e.URL); src != "" {
				w.visit(src)
			}
		}
		for _, t := range delta {
			w.locate(t, prior.roots)
		}
	} else {
		for src := range part.Leaves {
			w.visit(src)
		}
	}
	for src := range w.kids {
		d := source.Depth(src)
		for len(w.byDepth) <= d {
			w.byDepth = append(w.byDepth, nil)
		}
		w.byDepth[d] = append(w.byDepth[d], src)
	}
	for _, b := range w.byDepth {
		slices.Sort(b)
	}
	return w
}

// visit adds src and its ancestors to the walk.
func (w *walk) visit(src string) {
	if _, ok := w.kids[src]; ok {
		return
	}
	w.kids[src] = nil
	for {
		parent, ok := source.Parent(src)
		if !ok {
			return
		}
		ks, seen := w.kids[parent]
		w.kids[parent] = append(ks, src)
		if seen {
			return
		}
		src = parent
	}
}

// locate visits every prior source among srcs and their descendants
// whose table holds t. A parent's table holds every cell of each
// child's, so the search descends only below a table that matched.
func (w *walk) locate(t kb.Triple, srcs []string) {
	for _, src := range srcs {
		if st := w.base.sources.get(src); st.table.ContainsFact(t) {
			w.visit(src)
			w.locate(t, st.children)
		}
	}
}

// baseState returns src's state in the prior run an incremental walk
// extends (nil for a full walk or a new source).
func (w *walk) baseState(src string) *sourceState {
	if w.base == nil {
		return nil
	}
	return w.base.sources.get(src)
}

// children lists src's children, sorted: its visited children plus,
// in an incremental walk, the prior run's — the order a full walk
// completes them in.
func (w *walk) children(src string) []string {
	ks := w.kids[src]
	if st := w.baseState(src); st != nil && len(st.children) > 0 {
		if len(ks) == 0 {
			return st.children // shared with the prior run: never sorted in place
		}
		ks = append(slices.Clip(st.children), ks...)
	}
	slices.Sort(ks)
	return slices.Compact(ks)
}

// Run executes the framework over an extraction corpus against an
// existing KB (nil = empty).
func Run(corpus *fact.Corpus, existing *kb.KB, opts Options) *Output {
	out, _ := RunContext(context.Background(), corpus, existing, opts)
	return out
}

// RunContext is Run with cancellation: between hierarchy levels the
// context is checked, and on cancellation the partial output (slices
// finalized so far — i.e. those whose domains completed) is returned
// together with the context's error. A level in flight runs to
// completion; per-source detection is not interrupted mid-lattice.
func RunContext(ctx context.Context, corpus *fact.Corpus, existing *kb.KB, opts Options) (*Output, error) {
	reg := opts.Obs.OrDefault()
	runStart := time.Now()
	// With an explicit tracer, root the run on it (the batch -trace
	// path). Otherwise parent to whatever span the context carries —
	// midas-serve's per-request span, making the request the ancestor of
	// every round — falling back to a root on the default tracer.
	var runSpan *obs.Span
	if opts.Trace != nil {
		ctx, runSpan = opts.Trace.StartSpan(ctx, "framework/run")
	} else {
		ctx, runSpan = obs.StartSpanOrRoot(ctx, "framework/run")
	}
	// One token budget for the whole run: each in-flight source shard
	// holds one token, and the default detector's lattice build grabs
	// spare tokens for within-source parallelism (hierarchy.Options.Pool)
	// — total concurrency never exceeds opts.Workers.
	pool := hierarchy.NewPool(opts.workers())
	detect := opts.detector(pool)
	cost := opts.cost()
	// Discovery never mutates the KB: freeze it once so the worker pool
	// probes membership lock-free instead of contending on its RWMutex.
	var member kb.Membership
	if existing != nil {
		member = existing.Frozen()
	}

	// Partition the corpus by normalized leaf source, fingerprinting
	// each source's triple sequence: the corpus is append-only, so an
	// unchanged source reproduces its prior fingerprint and is a reuse
	// candidate. A caller-held partition is already extended.
	part := opts.Partition
	if part == nil {
		part = fact.NewPartition()
		part.Extend(corpus)
	}
	w := newWalk(corpus, part, opts.Prior, opts.Delta)

	var epochNow uint64
	if existing != nil {
		epochNow = existing.Epoch()
	}
	keep := !opts.OmitNextPrior
	next := &Prior{Epoch: epochNow, part: opts.Partition, facts: part.Len()}
	var levels []levelTally
	switch {
	case w.base != nil:
		next.sources = w.base.sources.derive()
		next.roots = w.base.roots
		levels = slices.Clone(w.base.levels)
	case keep:
		next.sources = stateMap{over: make(map[string]*sourceState, len(w.kids))}
	}
	for len(levels) < len(w.byDepth) {
		levels = append(levels, levelTally{})
	}
	// finished holds the visited sources completed in earlier rounds,
	// for their parents to collect; without a next prior to build, a
	// parent's collection is their last use.
	finished := make(map[string]done, len(w.kids))

	out := &Output{}
	var final []scored

	reg.Counter("framework/runs").Inc()
	reg.Counter("framework/corpus_facts").Add(int64(len(corpus.Facts)))
	reg.Counter("framework/leaf_sources").Add(int64(len(part.Leaves)))

	finish := func(err error) (*Output, error) {
		sort.SliceStable(final, func(i, j int) bool {
			a, b := final[i].sl, final[j].sl
			if a.Profit != b.Profit {
				return a.Profit > b.Profit
			}
			return a.Source < b.Source
		})
		out.Slices = make([]*slice.Slice, len(final))
		out.FactSets = make([][]kb.Triple, len(final))
		for i, s := range final {
			out.Slices[i] = s.sl
			out.FactSets[i] = s.facts
		}
		reg.Timer("framework/run").Observe(time.Since(runStart))
		reg.Counter("framework/final_slices").Add(int64(len(out.Slices)))
		runSpan.Arg("rounds", strconv.Itoa(out.Rounds)).
			Arg("sources_processed", strconv.Itoa(out.SourcesProcessed)).
			Arg("sources_reused", strconv.Itoa(out.SourcesReused)).
			Arg("final_slices", strconv.Itoa(len(out.Slices))).
			End()
		return out, err
	}

	var newRoots []string
	for d := len(levels) - 1; d >= 1; d-- {
		if err := ctx.Err(); err != nil {
			return finish(err)
		}
		// Shard: the visited sources whose depth is d; every deeper
		// descendant has already completed. A source the walk does not
		// visit counts as reused.
		var batch []string
		if d < len(w.byDepth) {
			batch = w.byDepth[d]
		}
		for _, src := range batch {
			if w.baseState(src) == nil {
				levels[d].sources++
				if d == 1 {
					newRoots = append(newRoots, src)
				}
			}
		}
		total := levels[d].sources
		if total == 0 {
			continue
		}
		out.Rounds++
		roundStart := time.Now()
		roundCtx, roundSpan := obs.StartSpan(ctx, "framework/depth"+obs.IndexLabel(d))
		roundSpan.Arg("depth", strconv.Itoa(d)).Arg("sources", strconv.Itoa(total))

		// Detect + consolidate each dirty shard on the worker pool;
		// fully-reusable shards are answered inline from the prior run
		// (their cached surviving slices are proven still valid, so no
		// detector invocation is needed). busyNs accumulates in-shard
		// wall time across workers; against the round's wall clock it
		// yields the pool's utilization (1.0 = every worker busy the
		// whole round; low values flag skew from one oversized shard).
		entries := make([]pendingEntry, len(batch))
		results := make([]done, len(batch))
		type shard struct {
			i    int
			plan reusePlan
		}
		var dirty []shard
		for i, src := range batch {
			pe := &entries[i]
			if ls := part.Leaves[src]; ls != nil {
				pe.triples, pe.leafFP = ls.Triples, ls.FP
			}
			pe.names = w.children(src)
			pe.children = make([]done, len(pe.names))
			for j, c := range pe.names {
				if f, ok := finished[c]; ok {
					pe.children[j] = f
					if !keep {
						delete(finished, c)
					}
				} else {
					pe.children[j] = done{state: w.base.sources.get(c), tableReused: true, survivingSame: true}
				}
			}
			plan := planReuse(opts.Prior, src, pe, pe.leafFP, opts.Delta)
			if plan.full {
				results[i] = done{state: plan.state, tableReused: true, survivingSame: true}
				continue
			}
			dirty = append(dirty, shard{i, plan})
		}
		// A fixed set of workers pulls dirty shards off a shared cursor,
		// so goroutines (and the stacks the lattice build grows) are
		// reused across sources instead of started per source.
		var wg sync.WaitGroup
		var cursor, busyNs atomic.Int64
		shardTimer := reg.Timer("framework/shard")
		for range min(opts.workers(), len(dirty)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					k := int(cursor.Add(1) - 1)
					if k >= len(dirty) {
						return
					}
					i, src := dirty[k].i, batch[dirty[k].i]
					pool.Acquire()
					shardStart := time.Now()
					srcCtx, srcSpan := obs.StartSpan(roundCtx, src)
					results[i] = processSource(srcCtx, src, d, &entries[i], dirty[k].plan, corpus.Space, member, detect, cost, reg)
					srcSpan.Arg("surviving", strconv.Itoa(len(results[i].state.surviving))).End()
					elapsed := time.Since(shardStart)
					shardTimer.Observe(elapsed)
					busyNs.Add(int64(elapsed))
					pool.Release()
				}
			}()
		}
		wg.Wait()
		processed := len(dirty)
		reused := total - processed
		roundSpan.Arg("reused", strconv.Itoa(reused)).End()
		out.SourcesProcessed += processed
		out.SourcesReused += reused

		// Record every visited source for its parent and the next run,
		// moving the depth's slice tally from its prior state to its
		// new one.
		for i, src := range batch {
			r := results[i]
			finished[src] = r
			if keep {
				next.sources.put(src, r.state)
			}
			if old := w.baseState(src); old != nil {
				levels[d].slices -= len(old.surviving)
			}
			levels[d].slices += len(r.state.surviving)
		}
		surviving := levels[d].slices
		roundWall := time.Since(roundStart)
		out.Levels = append(out.Levels, LevelStat{
			Depth:   d,
			Sources: total,
			Slices:  surviving,
			Reused:  reused,
			Seconds: roundWall.Seconds(),
		})
		reg.Counter("framework/rounds").Inc()
		reg.Counter("framework/sources_processed").Add(int64(processed))
		reg.Counter("framework/sources_reused").Add(int64(reused))
		reg.Timer("framework/round").Observe(roundWall)
		reg.TimerVec("framework/depth", "depth").With(obs.IndexLabel(d)).Observe(roundWall)
		reg.CounterVec("framework/depth_sources", "depth").With(obs.IndexLabel(d)).Add(int64(total))
		reg.Histogram("framework/round_sources").Observe(float64(total))
		reg.Histogram("framework/round_slices").Observe(float64(surviving))
		if wall := roundWall.Seconds(); wall > 0 && processed > 0 {
			workers := opts.workers()
			if processed < workers {
				workers = processed
			}
			util := busyNs.Load() / int64(workers)
			reg.Gauge("framework/worker_utilization").Set(float64(util) / 1e9 / wall)
		}
	}

	// The domain-level sources' surviving slices are the output.
	if len(newRoots) > 0 {
		next.roots = append(slices.Clone(next.roots), newRoots...)
		slices.Sort(next.roots)
	}
	if len(levels) > 1 {
		final = make([]scored, 0, levels[1].slices)
	}
	for _, r := range next.roots {
		st := w.baseState(r)
		if f, ok := finished[r]; ok {
			st = f.state
		}
		final = append(final, st.surviving...)
	}
	if keep {
		next.levels = levels
		out.NextPrior = next
	}
	return finish(nil)
}

// processSource builds the source's fact table (merging leaf facts with
// the children's tables), detects slices seeded with the children's
// surviving slices, and consolidates parent against child slices. A
// reuse plan with a clean table skips the build/merge (re-annotating
// the newness bits first if absorbed triples touched the table); the
// detector still runs, because a child's surviving slices changed.
func processSource(ctx context.Context, src string, depth int, pe *pendingEntry, plan reusePlan, space *kb.Space, existing kb.Membership, detect detectFunc, cost slice.CostModel, reg *obs.Registry) done {
	// Assemble the fact table at this granularity.
	_, tableSpan := obs.StartSpan(ctx, "table/build")
	var table *fact.Table
	tableReused := false
	switch {
	case plan.state != nil && !plan.reannotate:
		table = plan.state.table
		tableReused = true
		reg.Counter("fact/tables_reused").Inc()
	case plan.state != nil:
		table = fact.Reannotate(plan.state.table, existing)
		reg.Counter("fact/tables_reannotated").Inc()
	default:
		var leaf *fact.Table
		if len(pe.triples) > 0 {
			leaf = fact.BuildObs(src, space, pe.triples, existing, reg)
		}
		if len(pe.children) == 0 && leaf != nil {
			table = leaf
		} else {
			tables := make([]*fact.Table, 0, len(pe.children)+1)
			if leaf != nil {
				tables = append(tables, leaf)
			}
			for _, c := range pe.children {
				tables = append(tables, c.state.table)
			}
			table = fact.MergeObs(src, space, tables, reg)
		}
	}
	tableSpan.Arg("entities", strconv.Itoa(len(table.Entities))).End()

	var children []scored
	for _, c := range pe.children {
		children = append(children, c.state.surviving...)
	}
	// Map subjects to rows for seeding; most sources (leaf pages) have no
	// child slice to seed, and skip the map.
	var seeds []hierarchy.Seed
	if len(children) > 0 {
		rowOf := make(map[dict.ID]int32, len(table.Entities))
		for i := range table.Entities {
			rowOf[table.Entities[i].Subject] = int32(i)
		}
		seeds = make([]hierarchy.Seed, len(children))
		for i, s := range children {
			rows := make([]int32, 0, s.sl.Entities.Len())
			for _, subj := range s.sl.Entities.Values() {
				if r, ok := rowOf[subj]; ok {
					rows = append(rows, r)
				}
			}
			seeds[i] = hierarchy.Seed{Props: s.sl.Props, Entities: rows}
		}
	}

	detectCtx, detectSpan := obs.StartSpan(ctx, "detect")
	detected := detect(detectCtx, table, seeds)
	detectSpan.Arg("slices", strconv.Itoa(len(detected))).End()
	parents := make([]scored, len(detected))
	for i, sl := range detected {
		parents[i] = scored{sl: sl, facts: sl.FactSet(table), sourceTotal: table.TotalFacts}
	}

	_, consSpan := obs.StartSpan(ctx, "consolidate")
	surviving := consolidate(parents, children, depth, cost, existing, reg)
	consSpan.Arg("surviving", strconv.Itoa(len(surviving))).End()
	return done{
		state:       &sourceState{leafFP: pe.leafFP, table: table, surviving: surviving, children: pe.names},
		tableReused: tableReused,
	}
}

// consolidate compares each parent slice against the child slices whose
// entities it covers: if the child set's combined profit beats the
// parent slice, the parent is pruned and the children survive;
// otherwise the parent survives and those children are discarded
// (Example 16). Children not covered by any parent slice survive too —
// a coarser ancestor may still consolidate them later.
//
// Keep/drop tallies are reported to the "framework/consolidate" counter
// vector labeled by decision and hierarchy depth, so a scraper can read
// where in the URL hierarchy consolidation is deciding each way.
func consolidate(parents, children []scored, depth int, cost slice.CostModel, existing kb.Membership, reg *obs.Registry) []scored {
	tally := reg.CounterVec("framework/consolidate", "decision", "depth")
	dl := obs.IndexLabel(depth)
	if len(children) == 0 {
		tally.With("parents_kept", dl).Add(int64(len(parents)))
		return parents
	}
	var parentsKept, parentsPruned, childrenKept, childrenDropped int64
	consumed := make([]bool, len(children))
	surviving := make([]scored, 0, len(parents))
	for _, p := range parents {
		var cs []int
		for i := range children {
			if !consumed[i] && children[i].sl.Entities.IsSubsetOf(p.sl.Entities) {
				cs = append(cs, i)
			}
		}
		if len(cs) == 0 {
			surviving = append(surviving, p)
			parentsKept++
			continue
		}
		// Ties go to the children: same profit at a finer granularity
		// means a narrower crawl for the same value.
		if childSetProfit(children, cs, cost, existing) >= p.sl.Profit {
			// The children win: they survive, the parent slice is pruned.
			for _, i := range cs {
				consumed[i] = true
				surviving = append(surviving, children[i])
			}
			parentsPruned++
			childrenKept += int64(len(cs))
		} else {
			// The parent wins: keep it, discard the covered children.
			for _, i := range cs {
				consumed[i] = true
			}
			surviving = append(surviving, p)
			parentsKept++
			childrenDropped += int64(len(cs))
		}
	}
	for i := range children {
		if !consumed[i] {
			surviving = append(surviving, children[i])
			childrenKept++
		}
	}
	tally.With("parents_kept", dl).Add(parentsKept)
	tally.With("parents_pruned", dl).Add(parentsPruned)
	tally.With("children_kept", dl).Add(childrenKept)
	tally.With("children_dropped", dl).Add(childrenDropped)
	return surviving
}

// childSetProfit computes f over the indexed child slices, with exact
// fact-union statistics and the crawl term charged once per distinct
// origin source.
func childSetProfit(children []scored, idx []int, cost slice.CostModel, existing kb.Membership) float64 {
	sets := make([][]kb.Triple, len(idx))
	totals := make(map[string]int)
	for i, j := range idx {
		sets[i] = children[j].facts
		totals[children[j].sl.Source] = children[j].sourceTotal
	}
	unionFacts, unionNew := slice.UnionStats(sets, existing)
	// Sum the crawl terms in sorted-source order: SetProfit accumulates
	// them in floating point, so map-iteration order would make the
	// profit — and with it consolidation decisions — nondeterministic
	// at the ulp level.
	srcs := make([]string, 0, len(totals))
	for s := range totals {
		srcs = append(srcs, s)
	}
	sort.Strings(srcs)
	perSource := make([]int, 0, len(totals))
	for _, s := range srcs {
		perSource = append(perSource, totals[s])
	}
	return cost.SetProfit(len(idx), unionFacts, unionNew, perSource)
}
