package hierarchy_test

import (
	"fmt"
	"slices"
	"testing"

	"midas/internal/dict"
	"midas/internal/fact"
	"midas/internal/hierarchy"
	"midas/internal/kb"
)

// refCombos is the reference enumeration of an entity's initial slices:
// the full cross product taking one value per predicate, built by
// recursion in lexicographic order, then cut to the first limit. capped
// reports whether the full product exceeds limit. An entity without
// properties has no initial slice.
func refCombos(props []fact.Property, limit int) ([][]fact.Property, bool) {
	if len(props) == 0 {
		return nil, false
	}
	var groups [][]fact.Property
	for i, p := range props {
		if i == 0 || p.Pred() != props[i-1].Pred() {
			groups = append(groups, nil)
		}
		groups[len(groups)-1] = append(groups[len(groups)-1], p)
	}
	var full [][]fact.Property
	var walk func(prefix []fact.Property)
	walk = func(prefix []fact.Property) {
		if len(prefix) == len(groups) {
			full = append(full, slices.Clone(prefix))
			return
		}
		for _, p := range groups[len(prefix)] {
			walk(append(prefix, p))
		}
	}
	walk(nil)
	if len(full) > limit {
		return full[:max(limit, 0)], true
	}
	return full, false
}

// props builds a sorted property set from "pred=value" pairs over small
// numeric IDs.
func props(pairs ...[2]dict.ID) []fact.Property {
	out := make([]fact.Property, 0, len(pairs))
	for _, pv := range pairs {
		out = append(out, fact.Prop(pv[0], pv[1]))
	}
	slices.Sort(out)
	return slices.Compact(out)
}

func checkCombos(t *testing.T, in []fact.Property, limit int) {
	t.Helper()
	got, gotCapped := hierarchy.InitialCombos(in, limit)
	want, wantCapped := refCombos(in, limit)
	if gotCapped != wantCapped {
		t.Fatalf("props %v cap %d: capped = %v, want %v", in, limit, gotCapped, wantCapped)
	}
	if len(got) != len(want) {
		t.Fatalf("props %v cap %d: %d combos, want %d", in, limit, len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("props %v cap %d: combo %d = %v, want %v", in, limit, i, got[i], want[i])
		}
	}
}

// TestInitialCombos checks the initial-slice enumeration against the
// reference cross product, both directly and through a one-entity
// Build: the hierarchy's initial nodes are exactly the reference
// combinations, and CombosCapped is set iff the product exceeds the
// cap.
func TestInitialCombos(t *testing.T) {
	// Predicate 1 has two values, predicate 2 three, predicate 3 one:
	// a product of 6.
	multi := [][2]dict.ID{{1, 10}, {1, 11}, {2, 20}, {2, 21}, {2, 22}, {3, 30}}
	cases := []struct {
		name   string
		pairs  [][2]dict.ID
		limit  int
		want   int
		capped bool
	}{
		{"single-valued", [][2]dict.ID{{1, 10}, {2, 20}, {3, 30}}, 64, 1, false},
		{"below cap", multi, 10, 6, false},
		{"at cap", multi, 6, 6, false},
		{"above cap", multi, 4, 4, true},
		{"single-valued above cap", [][2]dict.ID{{1, 10}}, 0, 0, true},
		{"no properties", nil, 64, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := props(tc.pairs...)
			checkCombos(t, in, tc.limit)
			if tc.limit < 1 || len(in) == 0 {
				return // the builder treats a zero cap as the default
			}
			h, rowProps := buildOneEntity(t, tc.pairs, tc.limit)
			if h.Stats.InitialSlices != tc.want {
				t.Errorf("InitialSlices = %d, want %d", h.Stats.InitialSlices, tc.want)
			}
			if got := h.Stats.CombosCapped == 1; got != tc.capped {
				t.Errorf("CombosCapped = %d, want capped = %v", h.Stats.CombosCapped, tc.capped)
			}
			want, _ := refCombos(rowProps, tc.limit)
			var initial [][]fact.Property
			for _, n := range h.Nodes() {
				if n.Initial {
					initial = append(initial, n.Props)
				}
			}
			if len(initial) != len(want) {
				t.Fatalf("%d initial nodes, want %d", len(initial), len(want))
			}
			for i := range want {
				if !slices.Equal(initial[i], want[i]) {
					t.Errorf("initial node %d = %v, want %v", i, initial[i], want[i])
				}
			}
		})
	}
}

// buildOneEntity builds the hierarchy of a table holding one entity
// with the given (predicate, value) facts, returning it with the
// entity's row properties (the table interns its own IDs).
func buildOneEntity(t *testing.T, pairs [][2]dict.ID, limit int) (*hierarchy.Hierarchy, []fact.Property) {
	t.Helper()
	sp := kb.NewSpace()
	var triples []kb.Triple
	for _, pv := range pairs {
		triples = append(triples, sp.Intern("e", fmt.Sprintf("p%d", pv[0]), fmt.Sprintf("v%d", pv[1])))
	}
	table := fact.Build("src", sp, triples, kb.New(sp))
	b := &hierarchy.Builder{Table: table, MaxInitCombos: limit}
	return b.Build(nil), table.Entities[0].Props
}

// FuzzInitialCombos checks the enumeration against the reference for
// arbitrary property sets: each input byte pair is one (predicate,
// value) property over a small alphabet, and limit selects the cap.
func FuzzInitialCombos(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 0, 1, 1, 1, 2}, byte(4))
	f.Add([]byte{0, 0, 1, 0, 2, 0}, byte(1))
	f.Add([]byte{}, byte(0))
	f.Fuzz(func(t *testing.T, raw []byte, limit byte) {
		var pairs [][2]dict.ID
		for i := 0; i+1 < len(raw) && len(pairs) < 12; i += 2 {
			pairs = append(pairs, [2]dict.ID{dict.ID(raw[i] % 5), dict.ID(raw[i+1] % 4)})
		}
		checkCombos(t, props(pairs...), int(limit%100)-1)
	})
}
