// Package hierarchy implements step 1 of MIDASalg: bottom-up
// construction and pruning of the slice hierarchy (Section III-A-1).
//
// Nodes are candidate slices keyed by their property set; the lattice
// edges connect a slice to the slices obtained by removing one property
// (its parents — coarser, more general) or adding properties (its
// children — finer). Construction starts from the initial slices implied
// by the entities of a fact table and proceeds level by level toward the
// root, Apriori-style, applying two prunings:
//
//   - canonicity (Proposition 12): a slice is canonical iff it is an
//     initial slice or has at least two canonical children; non-canonical
//     slices select the same entities as one of their children and are
//     removed, re-linking their children to their parents;
//   - profit lower bounds: for each slice S a set S_LB(S) of descendants
//     with total profit f_LB(S) ≥ 0 is maintained; S is marked invalid
//     (low-profit) when f({S}) is negative or below the profit achievable
//     by its subtree.
//
// Within one source the sweep is parallel: each level's parent
// generation, entity-set finalization, and profit scoring shard across
// the worker budget of Options (see parallel.go), with output
// guaranteed bit-identical to the sequential build. The traversal of
// the trimmed hierarchy (step 2) lives in package core.
package hierarchy

import (
	"slices"
	"sort"
	"time"

	"midas/internal/fact"
	"midas/internal/idset"
	"midas/internal/obs"
	"midas/internal/slice"
)

// Node is a candidate slice in the hierarchy.
type Node struct {
	// Props is the defining property set C, sorted ascending. It is a
	// view into the builder's property-set arena; nodes over the same
	// set share storage. Do not mutate.
	Props []fact.Property
	// Entities holds the local row indexes into the builder's fact table
	// whose rows carry every property in Props.
	Entities idset.Set
	// Facts and NewFacts are |Π*| and |Π* \ E| for this node.
	Facts    int
	NewFacts int
	// Profit is f({S}) including the source's crawl term.
	Profit float64
	// FLB is the profit lower bound achievable by the subtree, ≥ 0.
	FLB float64
	// SLB is the slice set realizing FLB (nil when FLB comes from the
	// empty set or from the node itself — see SLBSelf).
	SLB []*Node
	// SLBSelf records that S_LB(S) = {S}.
	SLBSelf bool

	// Initial marks slices formed directly from an entity's properties.
	Initial bool
	// Canonical marks slices that survive Proposition 12.
	Canonical bool
	// Valid is false for slices pruned as low-profit. Invalid slices stay
	// in the hierarchy for structure but are never selected.
	Valid bool
	// Covered is used by the top-down traversal (Algorithm 1).
	Covered bool

	Children []*Node
	Parents  []*Node

	removed bool
	// set is the interned ID of Props in the builder's interner; it keys
	// the node within its lattice level.
	set idset.SetID
	// childIDs mirrors Children as a sorted slice of the children's
	// interned property-set IDs. Node ↔ ID is one-to-one within a
	// build, so ID membership is child membership; the builder keeps
	// the mirror in sync through addChild/delChild.
	childIDs []idset.SetID
	// pending accumulates entity indexes before finalization.
	pending []int32
}

// Level returns the number of properties defining the node.
func (n *Node) Level() int { return len(n.Props) }

// HasChild reports whether c is a direct child of n. Property-set IDs
// identify nodes uniquely within a build, so the check is a binary
// search over the sorted child-ID mirror rather than an O(children)
// pointer scan — the canonicity sweep calls this on the huge fan-in
// nodes near the root (see TestHasChildSublinear).
func (n *Node) HasChild(c *Node) bool {
	_, ok := slices.BinarySearch(n.childIDs, c.set)
	return ok
}

// addChild links c under p, keeping the sorted child-ID mirror in sync.
// Callers guard with !p.HasChild(c), so the mirror never holds
// duplicates.
func addChild(p, c *Node) {
	p.Children = append(p.Children, c)
	i, _ := slices.BinarySearch(p.childIDs, c.set)
	p.childIDs = slices.Insert(p.childIDs, i, c.set)
}

// delChild unlinks c from p's children and the ID mirror.
func delChild(p, c *Node) {
	p.Children = deleteNode(p.Children, c)
	if i, ok := slices.BinarySearch(p.childIDs, c.set); ok {
		p.childIDs = slices.Delete(p.childIDs, i, i+1)
	}
}

// Hierarchy is the trimmed slice lattice of one web source.
type Hierarchy struct {
	// Levels[l] lists the surviving (canonical) nodes with l properties,
	// for l in [1, MaxLevel]. Levels[0] is unused.
	Levels   [][]*Node
	MaxLevel int
	Stats    Stats
}

// Stats reports construction effort, used by the ablation benches.
type Stats struct {
	NodesCreated   int // total lattice nodes materialized
	NodesRemoved   int // pruned as non-canonical
	NodesInvalid   int // marked low-profit
	InitialSlices  int
	EntitiesCapped int // entities whose property set was trimmed
	CombosCapped   int // entities whose value combinations were capped
}

// Nodes returns all surviving nodes, top level (fewest properties) first.
func (h *Hierarchy) Nodes() []*Node {
	var out []*Node
	for l := 1; l <= h.MaxLevel; l++ {
		out = append(out, h.Levels[l]...)
	}
	return out
}

// Builder constructs hierarchies over one fact table.
type Builder struct {
	Table *fact.Table
	Cost  slice.CostModel

	// MaxPropsPerEntity trims an entity's property set before forming its
	// initial slices, keeping the properties most frequent in the table
	// (frequent properties are the ones shared across entities and hence
	// able to form multi-entity slices; rare ones only produce
	// singletons). 0 means DefaultMaxPropsPerEntity.
	MaxPropsPerEntity int
	// MaxInitCombos caps the number of initial slices produced for one
	// entity with multi-valued predicates (the cross product of one
	// property per predicate). 0 means DefaultMaxInitCombos.
	MaxInitCombos int

	// DisableCanonicalPrune and DisableProfitPrune switch off the two
	// pruning strategies, for ablation studies.
	DisableCanonicalPrune bool
	DisableProfitPrune    bool

	// Options bounds Build's within-source parallelism (see parallel.go).
	// The zero value parallelizes up to GOMAXPROCS with a private
	// budget; output is identical for every setting.
	Options Options

	// Obs receives construction metrics (nodes generated and pruned per
	// lattice level, mirroring the paper's Proposition 12 effectiveness
	// tables); nil falls back to the process-wide obs.Default().
	Obs *obs.Registry

	entFacts []int32 // per-entity fact counts
	entNew   []int32 // per-entity new-fact counts
	propFreq map[fact.Property]int32
	// props interns node property sets; it is distinct from the table's
	// interner because lattice nodes carry subsets no row has.
	props *idset.Interner[fact.Property]
	// union scratch buffers for worker 0, reused across finalize and
	// setProfit calls; extra workers carry their own pair.
	unionA, unionB []int32
	// combos enumerates initial slices in seedInitial.
	combos comboOdometer
}

// Default caps. Entities in real extractions have a handful of
// predicates; the caps only engage on adversarial inputs and keep the
// lattice polynomial.
const (
	DefaultMaxPropsPerEntity = 12
	DefaultMaxInitCombos     = 64
)

// Build constructs and prunes the hierarchy for the builder's table.
// extra seeds additional initial slices (used by the multi-source
// framework to start from the slices detected in child sources); each
// seed is a property set with the entity rows that carry it. Seeds that
// duplicate an existing node merge into it.
func (b *Builder) Build(extra []Seed) *Hierarchy {
	if b.MaxPropsPerEntity == 0 {
		b.MaxPropsPerEntity = DefaultMaxPropsPerEntity
	}
	if b.MaxInitCombos == 0 {
		b.MaxInitCombos = DefaultMaxInitCombos
	}
	b.prepare()

	reg := b.Obs.OrDefault()
	h := &Hierarchy{}
	// byID[id] is the live node over interned property set id (interner
	// IDs are dense), and levels[l] lists the nodes with l properties in
	// creation order.
	var byID []*Node
	levels := make([][]*Node, 1, 8)
	// Per-level effort tallies, reported to Obs when the build finishes.
	var createdByLevel, removedByLevel, invalidByLevel []int64
	bump := func(tally *[]int64, l int, by int64) {
		for len(*tally) <= l {
			*tally = append(*tally, 0)
		}
		(*tally)[l] += by
	}

	nodeByID := func(id idset.SetID) *Node {
		for int(id) >= len(byID) {
			byID = append(byID, nil)
		}
		if n := byID[id]; n != nil {
			return n
		}
		// The node keeps the interned arena view of its property set,
		// not any caller's (possibly scratch) slice.
		props := b.props.Get(id)
		l := len(props)
		for len(levels) <= l {
			levels = append(levels, nil)
		}
		h.Stats.NodesCreated++
		bump(&createdByLevel, l, 1)
		n := &Node{Props: props, set: id, Valid: true}
		byID[id] = n
		levels[l] = append(levels[l], n)
		return n
	}
	getNode := func(props []fact.Property) *Node {
		return nodeByID(b.props.Intern(props))
	}
	defer func() { b.record(&h.Stats, createdByLevel, removedByLevel, invalidByLevel) }()

	b.seedInitial(getNode, &h.Stats)
	for _, s := range extra {
		if len(s.Props) == 0 {
			continue
		}
		n := getNode(s.Props)
		n.Initial = true
		n.pending = append(n.pending, s.Entities...)
	}

	maxLevel := len(levels) - 1
	for maxLevel > 0 && len(levels[maxLevel]) == 0 {
		maxLevel--
	}
	if maxLevel == 0 {
		h.Levels = make([][]*Node, 1)
		return h
	}

	levelTimer := reg.TimerVec("hierarchy/level/build", "level")
	workersGauge := reg.Gauge("hierarchy/level_workers")

	// Finalize the deepest level's entity sets.
	b.finalizeLevel(levels[maxLevel])

	// Bottom-up sweep: levels from finest (most properties) to coarsest.
	// Level l is complete once level l+1 generated its parents, so it is
	// sorted once here; that order drives every later step and is the
	// order of Hierarchy.Levels[l].
	h.MaxLevel = maxLevel
	h.Levels = make([][]*Node, maxLevel+1)
	for l := maxLevel; l >= 1; l-- {
		levelStart := time.Now()
		workers := 1
		cur := sortNodes(levels[l])

		// (1) Construct parents from every node at level l, sharded
		// across the worker budget, then finalize the entity sets the
		// new pendings landed on.
		if l >= 2 {
			workers = max(workers, b.generateParents(cur, nodeByID))
			workers = max(workers, b.finalizeLevel(levels[l-1]))
		}

		// (2) Prune non-canonical slices at level l. Sequential: remove
		// re-links across levels, and its outcome depends on the
		// deterministic sorted order of cur.
		for _, n := range cur {
			n.Canonical = b.isCanonical(n)
			if !n.Canonical && !b.DisableCanonicalPrune {
				b.remove(n)
				h.Stats.NodesRemoved++
				bump(&removedByLevel, l, 1)
				byID[n.set] = nil
			}
		}
		cur = slices.DeleteFunc(cur, func(n *Node) bool { return n.removed })

		// (3) Evaluate profit and the lower bound; mark low-profit
		// slices invalid. Children are deeper and immutable by now, so
		// scoring shards across workers.
		invalid, scoreWorkers := b.scoreLevel(cur)
		workers = max(workers, scoreWorkers)
		if invalid > 0 {
			h.Stats.NodesInvalid += int(invalid)
			bump(&invalidByLevel, l, invalid)
		}
		h.Levels[l] = cur

		levelTimer.With(obs.IndexLabel(l)).Observe(time.Since(levelStart))
		workersGauge.Set(float64(workers))
	}
	return h
}

// genOp records one parent link operation discovered by a worker: the
// worker-local interned ID of the parent property set and the child
// node. Replaying ops in recorded order during the merge reproduces the
// sequential build's exact link order (Children and Parents slices
// included), because chunks are contiguous and replayed in index order.
type genOp struct {
	id    idset.SetID
	child *Node
}

// genLocal is one worker's private parent-generation scratch: a private
// interner for the parent property sets it discovers, the link ops in
// discovery order, and the pending entity rows grouped per local set.
type genLocal struct {
	in      *idset.Interner[fact.Property]
	ops     []genOp
	pending [][]int32
}

// generateParents runs step (1) of the sweep for one level: every node
// contributes either the node over its shared-property core or its
// drop-one-property subsets as parents (see emitParents). With one
// worker it links directly into the shared maps; with several, workers
// record into private scratch and a single-threaded merge rebases each
// private interner onto the shared one (idset.Interner.Merge) and
// replays the ops in order. Returns the worker count used.
func (b *Builder) generateParents(cur []*Node, nodeByID func(idset.SetID) *Node) int {
	link := func(p, c *Node) {
		if !p.HasChild(c) {
			addChild(p, c)
			c.Parents = append(c.Parents, p)
		}
	}
	ws := b.acquireWorkers(len(cur), genMinChunk)
	if ws.n == 1 {
		var scratch []fact.Property
		ws.run(len(cur), func(_, lo, hi int) {
			b.emitParents(cur, lo, hi, &scratch, func(props []fact.Property, n *Node) {
				p := getNodeByProps(b, nodeByID, props)
				link(p, n)
				p.pending = append(p.pending, n.Entities.Values()...)
			})
		})
		return 1
	}

	locals := make([]genLocal, ws.n)
	ws.run(len(cur), func(w, lo, hi int) {
		g := &locals[w]
		g.in = idset.NewInterner[fact.Property]()
		var scratch []fact.Property
		b.emitParents(cur, lo, hi, &scratch, func(props []fact.Property, n *Node) {
			id := g.in.Intern(props)
			if int(id) == len(g.pending) {
				g.pending = append(g.pending, nil)
			}
			g.ops = append(g.ops, genOp{id: id, child: n})
			g.pending[id] = append(g.pending[id], n.Entities.Values()...)
		})
	})

	// Deterministic merge, single-threaded: worker order × op order is
	// the sequential order.
	for w := range locals {
		g := &locals[w]
		if g.in == nil || g.in.Len() == 0 {
			continue
		}
		remap := b.props.Merge(g.in)
		nodes := make([]*Node, g.in.Len())
		for _, op := range g.ops {
			p := nodes[op.id]
			if p == nil {
				p = nodeByID(remap[op.id])
				nodes[op.id] = p
			}
			link(p, op.child)
		}
		for id, pend := range g.pending {
			if len(pend) > 0 {
				nodes[id].pending = append(nodes[id].pending, pend...)
			}
		}
	}
	return ws.n
}

// getNodeByProps fetches/creates the node for props through the shared
// interner (sequential path of generateParents).
func getNodeByProps(b *Builder, nodeByID func(idset.SetID) *Node, props []fact.Property) *Node {
	return nodeByID(b.props.Intern(props))
}

// emitParents enumerates the parent candidates of cur[lo:hi] in
// deterministic order. scratch backs the drop-one property sets and is
// reused across nodes — interners copy sets on first sight, so it never
// escapes.
//
// A property held by a single entity can never occur in a multi-entity
// canonical slice, so every subset mixing unique and shared properties
// is doomed: it has exactly one child chain and would be built only to
// be removed as non-canonical, with its children re-linked to the
// shared-property ancestors. Nodes carrying unique properties therefore
// link directly to the node over their shared-property core (possibly
// several levels up), which is exactly the structure the construct-
// then-remove sequence converges to — without materializing the 2^k
// mixed subsets of isolated entities.
func (b *Builder) emitParents(cur []*Node, lo, hi int, scratch *[]fact.Property, emit func([]fact.Property, *Node)) {
	for _, n := range cur[lo:hi] {
		core := b.sharedCore(n.Props)
		if len(core) < len(n.Props) {
			if len(core) > 0 {
				emit(core, n)
			}
			continue
		}
		for i := range n.Props {
			s := append((*scratch)[:0], n.Props[:i]...)
			s = append(s, n.Props[i+1:]...)
			*scratch = s
			emit(s, n)
		}
	}
}

// finalizeLevel folds pending entities for every listed node, sharding
// across the worker budget when the level is large. Each node's result
// depends only on its own pending set, so the outcome is independent of
// the sharding. Returns the worker count used.
func (b *Builder) finalizeLevel(nodes []*Node) int {
	ws := b.acquireWorkers(len(nodes), finalizeMinChunk)
	ws.run(len(nodes), func(w, lo, hi int) {
		var scratch []int32
		if w == 0 {
			scratch = b.unionA
		}
		for _, n := range nodes[lo:hi] {
			scratch = b.finalizeInto(n, scratch)
		}
		if w == 0 {
			b.unionA = scratch
		}
	})
	return ws.n
}

// scoreLevel scores every node and applies the low-profit marking,
// sharded across the worker budget; per-node scoring reads only deeper
// (already immutable) nodes. Returns the number of nodes marked
// invalid and the worker count used.
func (b *Builder) scoreLevel(nodes []*Node) (invalid int64, workers int) {
	ws := b.acquireWorkers(len(nodes), scoreMinChunk)
	counts := make([]int64, ws.n)
	ws.run(len(nodes), func(w, lo, hi int) {
		var sc unionScratch
		if w == 0 {
			sc = unionScratch{a: b.unionA, b: b.unionB}
		}
		for _, n := range nodes[lo:hi] {
			b.score(n, &sc)
			if !b.DisableProfitPrune && (n.Profit < 0 || n.Profit < n.FLB) {
				n.Valid = false
				counts[w]++
			}
		}
		if w == 0 {
			b.unionA, b.unionB = sc.a, sc.b
		}
	})
	for _, c := range counts {
		invalid += c
	}
	return invalid, ws.n
}

// record publishes one build's effort tallies to the observability
// registry: aggregate totals plus per-lattice-level breakdowns of nodes
// generated, pruned by canonicity (Proposition 12), and pruned by the
// profit lower bound — the quantities behind the paper's Section V
// pruning-effectiveness tables. The breakdowns are counter vectors
// labeled by lattice level (bounded by MaxPropsPerEntity, so the series
// space stays small), replacing the name-mangled per-level counters of
// the first observability pass.
func (b *Builder) record(st *Stats, created, removed, invalid []int64) {
	reg := b.Obs.OrDefault()
	reg.Counter("hierarchy/builds").Inc()
	reg.Counter("hierarchy/nodes_generated").Add(int64(st.NodesCreated))
	reg.Counter("hierarchy/pruned_canonicity").Add(int64(st.NodesRemoved))
	reg.Counter("hierarchy/pruned_profit_bound").Add(int64(st.NodesInvalid))
	reg.Counter("hierarchy/initial_slices").Add(int64(st.InitialSlices))
	reg.Counter("hierarchy/entities_capped").Add(int64(st.EntitiesCapped))
	reg.Counter("hierarchy/combos_capped").Add(int64(st.CombosCapped))
	perLevel := func(name string, tally []int64) {
		vec := reg.CounterVec(name, "level")
		for l, n := range tally {
			if n > 0 {
				vec.With(obs.IndexLabel(l)).Add(n)
			}
		}
	}
	perLevel("hierarchy/level/nodes_generated", created)
	perLevel("hierarchy/level/pruned_canonicity", removed)
	perLevel("hierarchy/level/pruned_profit_bound", invalid)
}

// Seed is an externally supplied initial slice (from a child web source).
type Seed struct {
	Props    []fact.Property
	Entities []int32 // table row indexes
}

func (b *Builder) prepare() {
	t := b.Table
	b.props = idset.NewInterner[fact.Property]()
	b.entFacts = make([]int32, len(t.Entities))
	b.entNew = make([]int32, len(t.Entities))
	b.propFreq = make(map[fact.Property]int32)
	for i := range t.Entities {
		e := &t.Entities[i]
		b.entFacts[i] = int32(len(e.Props))
		b.entNew[i] = int32(e.NewCount)
		for _, p := range e.Props {
			b.propFreq[p]++
		}
	}
}

// seedInitial creates the initial slices for every entity: one slice per
// combination of properties taking one value per predicate. The
// combinations stream through the builder's odometer scratch straight
// into getNode, which interns a copy, so no per-entity slice escapes.
func (b *Builder) seedInitial(getNode func([]fact.Property) *Node, st *Stats) {
	for ei := range b.Table.Entities {
		e := &b.Table.Entities[ei]
		props := e.Props
		if len(props) > b.MaxPropsPerEntity {
			props = b.trimProps(props)
			st.EntitiesCapped++
		}
		if b.combos.reset(props, b.MaxInitCombos) {
			st.CombosCapped++
		}
		for c := b.combos.next(); c != nil; c = b.combos.next() {
			n := getNode(c)
			n.Initial = true
			n.pending = append(n.pending, int32(ei))
			st.InitialSlices++
		}
	}
}

// trimProps keeps the MaxPropsPerEntity most frequent properties of the
// entity (ties broken by property order for determinism).
func (b *Builder) trimProps(props []fact.Property) []fact.Property {
	idx := make([]int, len(props))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool {
		fx, fy := b.propFreq[props[idx[x]]], b.propFreq[props[idx[y]]]
		if fx != fy {
			return fx > fy
		}
		return props[idx[x]] < props[idx[y]]
	})
	idx = idx[:b.MaxPropsPerEntity]
	sort.Ints(idx)
	out := make([]fact.Property, len(idx))
	for i, j := range idx {
		out[i] = props[j]
	}
	return out
}

// comboOdometer enumerates an entity's initial slices: the property
// combinations taking exactly one value per predicate, in lexicographic
// order, up to a cap. Its buffers are reused from entity to entity, and
// each combination it yields is a view of them (or of the props passed
// to reset), valid until the next call to next or reset.
type comboOdometer struct {
	props []fact.Property
	// starts[g] .. starts[g+1] delimit predicate group g of props.
	starts []int
	// pos[g] indexes group g's current value in props; the last group
	// turns fastest.
	pos []int
	buf []fact.Property
	// left is how many more combinations the cap allows.
	left int
	// single marks the one-value-per-predicate fast path: the only
	// combination is props itself.
	single bool
}

// reset starts the enumeration over props, which must be sorted (so
// values of one predicate are contiguous), allowing at most limit
// combinations. It reports whether the full cross product exceeds
// limit.
func (o *comboOdometer) reset(props []fact.Property, limit int) (capped bool) {
	o.props, o.left = props, 0
	if len(props) == 0 {
		return false
	}
	if cap(o.pos) < len(props) {
		// Size the scratch once for typical entities instead of growing
		// it value by value.
		n := max(len(props), 16)
		o.starts, o.pos, o.buf = make([]int, 0, n+1), make([]int, 0, n), make([]fact.Property, 0, n)
	}
	o.starts = o.starts[:0]
	for i := range props {
		if i == 0 || props[i].Pred() != props[i-1].Pred() {
			o.starts = append(o.starts, i)
		}
	}
	groups := len(o.starts)
	o.starts = append(o.starts, len(props))
	o.single = groups == len(props)
	// The product only matters up to the cap, so stop multiplying once
	// it is past.
	product := 1
	for g := 0; g < groups && product <= limit; g++ {
		product *= o.starts[g+1] - o.starts[g]
	}
	o.left = max(min(product, limit), 0)
	if !o.single {
		// Every group starts on its first value, except the last, which
		// sits one before it: the first call to next advances onto the
		// first combination.
		o.pos, o.buf = o.pos[:0], o.buf[:0]
		for g := 0; g < groups; g++ {
			o.pos = append(o.pos, o.starts[g])
			o.buf = append(o.buf, props[o.starts[g]])
		}
		o.pos[groups-1]--
	}
	return product > limit
}

// next returns the next combination, or nil when the enumeration or
// the cap is exhausted.
func (o *comboOdometer) next() []fact.Property {
	if o.left == 0 {
		return nil
	}
	o.left--
	if o.single {
		return o.props
	}
	// Advance the last group, carrying into earlier groups on wrap. The
	// cap never exceeds the product, so the first group never wraps.
	for g := len(o.pos) - 1; g >= 0; g-- {
		o.pos[g]++
		if o.pos[g] < o.starts[g+1] {
			o.buf[g] = o.props[o.pos[g]]
			break
		}
		o.pos[g] = o.starts[g]
		o.buf[g] = o.props[o.pos[g]]
	}
	return o.buf
}

// finalizeInto folds a node's pending entities into its entity set
// (sort, dedup, union with the existing set) and refreshes its fact
// counts. Safe to call repeatedly; callers on different nodes may run
// concurrently as long as each carries its own scratch. The union runs
// through the scratch buffer (returned, possibly grown, for reuse); the
// node's set is always backed by a fresh exact-size slice.
func (b *Builder) finalizeInto(n *Node, scratch []int32) []int32 {
	if len(n.pending) == 0 {
		return scratch
	}
	slices.Sort(n.pending)
	dedup := slices.Compact(n.pending)
	var merged []int32
	if n.Entities.Empty() {
		merged = dedup
	} else {
		scratch = idset.AppendUnion(scratch[:0], n.Entities.Values(), dedup)
		merged = scratch
	}
	ents := make([]int32, len(merged))
	copy(ents, merged)
	n.Entities = idset.FromSorted(ents)
	n.pending = n.pending[:0]
	n.Facts, n.NewFacts = 0, 0
	for _, e := range ents {
		n.Facts += int(b.entFacts[e])
		n.NewFacts += int(b.entNew[e])
	}
	return scratch
}

// sharedCore returns the subset of props held by at least two entities
// of the table; it returns props itself (not a copy) when every
// property qualifies.
func (b *Builder) sharedCore(props []fact.Property) []fact.Property {
	shared := 0
	for _, p := range props {
		if b.propFreq[p] >= 2 {
			shared++
		}
	}
	if shared == len(props) {
		return props
	}
	core := make([]fact.Property, 0, shared)
	for _, p := range props {
		if b.propFreq[p] >= 2 {
			core = append(core, p)
		}
	}
	return core
}

// isCanonical applies Proposition 12.
func (b *Builder) isCanonical(n *Node) bool {
	if n.Initial {
		return true
	}
	count := 0
	for _, c := range n.Children {
		if c.Canonical {
			count++
			if count >= 2 {
				return true
			}
		}
	}
	return false
}

// remove deletes a non-canonical node, re-linking each of its children to
// each of its parents unless the child is already a descendant of that
// parent through another node (a sibling child whose property set is a
// strict subset of the child's).
func (b *Builder) remove(n *Node) {
	n.removed = true
	for _, p := range n.Parents {
		delChild(p, n)
	}
	for _, c := range n.Children {
		c.Parents = deleteNode(c.Parents, n)
	}
	for _, p := range n.Parents {
		for _, c := range n.Children {
			if p.HasChild(c) || descendantViaOther(p, c) {
				continue
			}
			addChild(p, c)
			c.Parents = append(c.Parents, p)
		}
	}
}

// descendantViaOther reports whether c is a descendant of p through some
// current child x of p: props(p) ⊂ props(x) ⊂ props(c).
func descendantViaOther(p, c *Node) bool {
	for _, x := range p.Children {
		if x != c && len(x.Props) < len(c.Props) && idset.IsSubset(x.Props, c.Props) {
			return true
		}
	}
	return false
}

// unionScratch is one worker's ping-pong buffer pair for entity-set
// unions in setProfit.
type unionScratch struct {
	a, b []int32
}

// score computes Profit, FLB, and SLB for a canonical node.
func (b *Builder) score(n *Node, sc *unionScratch) {
	n.Profit = b.Cost.SliceProfit(n.NewFacts, n.Facts, b.Table.TotalFacts)

	// Collect the lower-bound sets of children with positive bounds.
	var lb []*Node
	seen := make(map[*Node]struct{})
	for _, c := range n.Children {
		if c.FLB <= 0 {
			continue
		}
		set := c.SLB
		if c.SLBSelf {
			set = []*Node{c}
		}
		for _, s := range set {
			if _, dup := seen[s]; !dup {
				seen[s] = struct{}{}
				lb = append(lb, s)
			}
		}
	}
	fUnion := 0.0
	if len(lb) > 0 {
		fUnion = b.setProfit(lb, sc)
	}

	n.FLB = 0
	n.SLB, n.SLBSelf = nil, false
	if fUnion > n.FLB {
		n.FLB = fUnion
		n.SLB = lb
	}
	if n.Profit >= n.FLB && n.Profit > 0 {
		n.FLB = n.Profit
		n.SLB, n.SLBSelf = nil, true
	}
}

// setProfit computes f over a set of (possibly entity-overlapping) nodes
// of this source. The entity union is accumulated in the worker's two
// ping-pong scratch buffers instead of a per-call map.
func (b *Builder) setProfit(nodes []*Node, sc *unionScratch) float64 {
	if len(nodes) == 1 {
		return nodes[0].Profit
	}
	acc, spare := sc.a[:0], sc.b[:0]
	for _, n := range nodes {
		spare = idset.AppendUnion(spare[:0], acc, n.Entities.Values())
		acc, spare = spare, acc
	}
	facts, newFacts := 0, 0
	for _, e := range acc {
		facts += int(b.entFacts[e])
		newFacts += int(b.entNew[e])
	}
	sc.a, sc.b = acc, spare
	return b.Cost.SetProfit(len(nodes), facts, newFacts, []int{b.Table.TotalFacts})
}

// EntityStats exposes the per-entity fact counters for the traversal.
func (b *Builder) EntityStats() (facts, newFacts []int32) { return b.entFacts, b.entNew }

func deleteNode(list []*Node, n *Node) []*Node {
	out := list[:0]
	for _, x := range list {
		if x != n {
			out = append(out, x)
		}
	}
	return out
}

// sortNodes orders a level's nodes by their property sets, in place.
// Property sets are unique within a build, so the order is total and
// the build is deterministic whatever order the nodes were created in.
func sortNodes(nodes []*Node) []*Node {
	slices.SortFunc(nodes, func(a, b *Node) int { return slices.Compare(a.Props, b.Props) })
	return nodes
}
