package hierarchy_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"midas/internal/fact"
	"midas/internal/hierarchy"
	"midas/internal/kb"
	"midas/internal/slice"
)

// randomTable builds a small random fact table: nEnt entities over
// nPred predicates with nVal values each, each (entity, predicate)
// present with probability pPresent, plus a KB covering each fact with
// probability pKnown. Single-valued predicates keep the brute force
// simple.
func randomTable(rng *rand.Rand, nEnt, nPred, nVal int, pPresent, pKnown float64) *fact.Table {
	sp := kb.NewSpace()
	existing := kb.New(sp)
	var triples []kb.Triple
	for e := 0; e < nEnt; e++ {
		for p := 0; p < nPred; p++ {
			if rng.Float64() >= pPresent {
				continue
			}
			tr := sp.Intern(
				fmt.Sprintf("e%d", e),
				fmt.Sprintf("p%d", p),
				fmt.Sprintf("v%d", rng.Intn(nVal)))
			triples = append(triples, tr)
			if rng.Float64() < pKnown {
				existing.Add(tr)
			}
		}
	}
	return fact.Build("src", sp, triples, existing)
}

// bruteCanonical enumerates every property subset and returns, per
// non-empty selected entity set, the canonical (maximum-size) property
// set, keyed by the entity set.
func bruteCanonical(table *fact.Table) map[string][]fact.Property {
	props := table.Properties()
	if len(props) > 16 {
		panic("table too wide for brute force")
	}
	best := make(map[string][]fact.Property)
	for mask := 1; mask < 1<<len(props); mask++ {
		var C []fact.Property
		for i, p := range props {
			if mask&(1<<i) != 0 {
				C = append(C, p)
			}
		}
		var ents []int32
		for ei := range table.Entities {
			ok := true
			for _, p := range C {
				if !table.Entities[ei].HasProp(p) {
					ok = false
					break
				}
			}
			if ok {
				ents = append(ents, int32(ei))
			}
		}
		if len(ents) == 0 {
			continue
		}
		key := fmt.Sprint(ents)
		if cur, ok := best[key]; !ok || len(C) > len(cur) {
			best[key] = C
		}
	}
	return best
}

// TestCanonicalMatchesBruteForce property: the canonical nodes the
// builder keeps are exactly the brute-force canonical slices.
func TestCanonicalMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		table := randomTable(rng, 2+rng.Intn(6), 2+rng.Intn(3), 2, 0.8, 0.3)
		b := &hierarchy.Builder{Table: table, Cost: slice.ExampleCostModel(), DisableProfitPrune: true}
		h := b.Build(nil)

		want := bruteCanonical(table)
		got := make(map[string][]fact.Property)
		for _, n := range h.Nodes() {
			if !n.Canonical {
				continue
			}
			key := fmt.Sprint(n.Entities)
			if prev, dup := got[key]; dup {
				t.Logf("seed %d: duplicate canonical for %s: %v and %v", seed, key, prev, n.Props)
				return false
			}
			got[key] = n.Props
		}
		if len(got) != len(want) {
			t.Logf("seed %d: canonical count %d, brute force %d", seed, len(got), len(want))
			return false
		}
		for key, C := range want {
			gc, ok := got[key]
			if !ok || len(gc) != len(C) {
				t.Logf("seed %d: mismatch at %s: got %v want %v", seed, key, gc, C)
				return false
			}
			for i := range C {
				if gc[i] != C[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestLatticeStructure property: parents have strictly fewer
// properties, property sets are subsets, and entity sets are supersets.
// Each level lists only canonical nodes, in ascending property-set
// order: the order the traversal visits them in.
func TestLatticeStructure(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		table := randomTable(rng, 2+rng.Intn(8), 2+rng.Intn(4), 3, 0.7, 0.2)
		b := &hierarchy.Builder{Table: table, Cost: slice.DefaultCostModel()}
		h := b.Build(nil)
		for l := 1; l <= h.MaxLevel; l++ {
			for i, n := range h.Levels[l] {
				if !n.Canonical || n.Level() != l {
					return false
				}
				if i > 0 && slices.Compare(h.Levels[l][i-1].Props, n.Props) >= 0 {
					return false
				}
			}
		}
		for _, n := range h.Nodes() {
			for _, c := range n.Children {
				if len(c.Props) <= len(n.Props) {
					return false
				}
				if !isSubset(n.Props, c.Props) {
					return false
				}
				if !entitySuperset(n.Entities.Values(), c.Entities.Values()) {
					return false
				}
			}
			// Node stats match its entity rows.
			facts, fresh := 0, 0
			for _, e := range n.Entities.Values() {
				facts += table.Entities[e].Facts()
				fresh += table.Entities[e].NewCount
			}
			if facts != n.Facts || fresh != n.NewFacts {
				return false
			}
			// Entities really carry every property of the node.
			for _, e := range n.Entities.Values() {
				for _, p := range n.Props {
					if !table.Entities[e].HasProp(p) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestProfitLowerBound property: every valid node's profit matches the
// closed form, FLB is non-negative and at least the node's own positive
// profit.
func TestProfitLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		table := randomTable(rng, 3+rng.Intn(8), 2+rng.Intn(4), 2, 0.8, 0.5)
		cost := slice.ExampleCostModel()
		b := &hierarchy.Builder{Table: table, Cost: cost}
		h := b.Build(nil)
		for _, n := range h.Nodes() {
			want := cost.SliceProfit(n.NewFacts, n.Facts, table.TotalFacts)
			if math.Abs(n.Profit-want) > 1e-9 {
				return false
			}
			if n.FLB < 0 {
				return false
			}
			if n.Profit > 0 && n.FLB < n.Profit-1e-9 {
				return false
			}
			if n.Valid && n.Profit < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestSeeds: externally seeded slices join the lattice as initial
// nodes and can become canonical anchors.
func TestSeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	table := randomTable(rng, 6, 3, 2, 0.9, 0)
	// Seed with the first entity's first two properties.
	e0 := &table.Entities[0]
	if len(e0.Props) < 2 {
		t.Skip("unlucky table")
	}
	seed := hierarchy.Seed{Props: e0.Props[:2], Entities: []int32{0}}
	b := &hierarchy.Builder{Table: table, Cost: slice.DefaultCostModel(), DisableProfitPrune: true}
	h := b.Build([]hierarchy.Seed{seed})
	found := false
	for _, n := range h.Nodes() {
		if len(n.Props) == 2 && n.Props[0] == seed.Props[0] && n.Props[1] == seed.Props[1] {
			found = n.Initial && n.Canonical
		}
	}
	if !found {
		t.Error("seeded slice not present as an initial canonical node")
	}
}

// TestStatsCounters: construction effort counters move as expected.
func TestStatsCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	table := randomTable(rng, 10, 4, 2, 0.8, 0.3)
	full := (&hierarchy.Builder{Table: table, Cost: slice.DefaultCostModel()}).Build(nil)
	noCanon := (&hierarchy.Builder{Table: table, Cost: slice.DefaultCostModel(), DisableCanonicalPrune: true}).Build(nil)
	if full.Stats.NodesCreated == 0 || full.Stats.InitialSlices == 0 {
		t.Error("counters not populated")
	}
	if noCanon.Stats.NodesRemoved != 0 {
		t.Error("disabled canonical pruning still removed nodes")
	}
	if full.Stats.NodesRemoved == 0 {
		t.Error("canonical pruning removed nothing on a dense table")
	}
}

// TestComboCap: an entity with many multi-valued predicates respects
// MaxInitCombos.
func TestComboCap(t *testing.T) {
	sp := kb.NewSpace()
	var triples []kb.Triple
	// One entity, 4 predicates × 4 values each = 256 potential combos.
	for p := 0; p < 4; p++ {
		for v := 0; v < 4; v++ {
			triples = append(triples, sp.Intern("e", fmt.Sprintf("p%d", p), fmt.Sprintf("v%d-%d", p, v)))
		}
	}
	table := fact.Build("src", sp, triples, nil)
	b := &hierarchy.Builder{Table: table, Cost: slice.DefaultCostModel(), MaxInitCombos: 8}
	h := b.Build(nil)
	if h.Stats.InitialSlices > 8 {
		t.Errorf("initial slices = %d, want ≤ 8", h.Stats.InitialSlices)
	}
	if h.Stats.CombosCapped != 1 {
		t.Errorf("CombosCapped = %d, want 1", h.Stats.CombosCapped)
	}
}

// TestMaxPropsPerEntity: very wide entities get trimmed to the most
// frequent properties.
func TestMaxPropsPerEntity(t *testing.T) {
	sp := kb.NewSpace()
	var triples []kb.Triple
	for e := 0; e < 3; e++ {
		// Shared property on every entity plus 19 unique ones.
		triples = append(triples, sp.Intern(fmt.Sprintf("e%d", e), "shared", "v"))
		for p := 0; p < 19; p++ {
			triples = append(triples, sp.Intern(fmt.Sprintf("e%d", e), fmt.Sprintf("u%d-%d", e, p), "x"))
		}
	}
	table := fact.Build("src", sp, triples, nil)
	b := &hierarchy.Builder{Table: table, Cost: slice.ExampleCostModel(), MaxPropsPerEntity: 5, DisableProfitPrune: true}
	h := b.Build(nil)
	if h.Stats.EntitiesCapped != 3 {
		t.Errorf("EntitiesCapped = %d, want 3", h.Stats.EntitiesCapped)
	}
	// The shared property must survive the trim (it is the most
	// frequent) and form a canonical 3-entity node.
	shared := fact.Prop(sp.Predicates.Lookup("shared"), sp.Objects.Lookup("v"))
	found := false
	for _, n := range h.Nodes() {
		if len(n.Props) == 1 && n.Props[0] == shared && n.Entities.Len() == 3 {
			found = true
		}
	}
	if !found {
		t.Error("shared property node missing after trimming")
	}
}

func isSubset(a, b []fact.Property) bool {
	i := 0
	for _, p := range a {
		for i < len(b) && b[i] < p {
			i++
		}
		if i == len(b) || b[i] != p {
			return false
		}
	}
	return true
}

func entitySuperset(sup, sub []int32) bool {
	set := make(map[int32]bool, len(sup))
	for _, e := range sup {
		set[e] = true
	}
	for _, e := range sub {
		if !set[e] {
			return false
		}
	}
	return true
}

// TestDeterministicBuild: identical inputs produce identical lattices.
func TestDeterministicBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	table := randomTable(rng, 8, 4, 2, 0.8, 0.3)
	build := func() []string {
		b := &hierarchy.Builder{Table: table, Cost: slice.DefaultCostModel()}
		h := b.Build(nil)
		var keys []string
		for _, n := range h.Nodes() {
			keys = append(keys, fmt.Sprint(n.Props, n.Entities, n.Valid, n.Canonical))
		}
		return keys
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatalf("node counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("node %d differs:\n%s\n%s", i, a[i], b[i])
		}
	}
}

// TestWriteDOT: the DOT export is well-formed (balanced braces, one
// node line per surviving slice, edges only between existing nodes).
func TestWriteDOT(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	table := randomTable(rng, 8, 3, 2, 0.9, 0.3)
	b := &hierarchy.Builder{Table: table, Cost: slice.ExampleCostModel()}
	h := b.Build(nil)

	var buf bytes.Buffer
	if err := h.WriteDOT(&buf, table.Space); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "digraph slices {") || !strings.HasSuffix(strings.TrimSpace(out), "}") {
		t.Error("malformed DOT envelope")
	}
	nodes := strings.Count(out, "label=")
	if want := len(h.Nodes()); nodes != want {
		t.Errorf("DOT nodes = %d, want %d", nodes, want)
	}
	edges := strings.Count(out, "->")
	wantEdges := 0
	for _, n := range h.Nodes() {
		wantEdges += len(n.Children)
	}
	if edges != wantEdges {
		t.Errorf("DOT edges = %d, want %d", edges, wantEdges)
	}
}
