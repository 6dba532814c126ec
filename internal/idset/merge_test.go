package idset

import (
	"fmt"
	"math/rand"
	"testing"
)

// refInterner is a map-based reference for the interner: set-key →
// dense ID in first-intern order.
type refInterner struct {
	ids  map[string]SetID
	sets [][]int32
}

func newRefInterner() *refInterner {
	return &refInterner{ids: make(map[string]SetID)}
}

func (r *refInterner) intern(set []int32) SetID {
	key := fmt.Sprint(set)
	if id, ok := r.ids[key]; ok {
		return id
	}
	id := SetID(len(r.sets))
	r.ids[key] = id
	r.sets = append(r.sets, append([]int32(nil), set...))
	return id
}

// checkMergeAgainstRef merges src into dst twice and verifies against
// the reference semantics: the remap table maps every src ID to a dst
// ID holding the same set, dst's ID assignment matches a reference that
// interned dst's sets then src's in ID order, and a second merge is a
// no-op (idempotence).
func checkMergeAgainstRef(t *testing.T, dst, src *Interner[int32]) {
	t.Helper()

	ref := newRefInterner()
	for id := 0; id < dst.Len(); id++ {
		ref.intern(dst.Get(SetID(id)))
	}
	for id := 0; id < src.Len(); id++ {
		ref.intern(src.Get(SetID(id)))
	}

	remap := dst.Merge(src)
	if len(remap) != src.Len() {
		t.Fatalf("remap has %d entries, want %d", len(remap), src.Len())
	}
	if dst.Len() != len(ref.sets) {
		t.Fatalf("after merge dst has %d sets, want %d", dst.Len(), len(ref.sets))
	}
	for id := 0; id < src.Len(); id++ {
		got := dst.Get(remap[id])
		want := src.Get(SetID(id))
		if !eqSlices(got, want) {
			t.Fatalf("remap[%d]=%d resolves to %v, want %v", id, remap[id], got, want)
		}
		if wantID := ref.ids[fmt.Sprint(want)]; remap[id] != wantID {
			t.Fatalf("remap[%d] = %d, reference assigns %d", id, remap[id], wantID)
		}
	}
	for id := 0; id < dst.Len(); id++ {
		if !eqSlices(dst.Get(SetID(id)), ref.sets[id]) {
			t.Fatalf("dst id %d holds %v, reference holds %v", id, dst.Get(SetID(id)), ref.sets[id])
		}
	}

	again := dst.Merge(src)
	if dst.Len() != len(ref.sets) {
		t.Fatalf("second merge grew dst to %d sets, want %d (not idempotent)", dst.Len(), len(ref.sets))
	}
	for id := range again {
		if again[id] != remap[id] {
			t.Fatalf("second merge remap[%d] = %d, want %d", id, again[id], remap[id])
		}
	}
}

// TestInternerMerge exercises Merge on randomized interner pairs with
// deliberate overlap: sets present in both sides must keep dst's ID,
// sets only in src must be appended in src's ID order.
func TestInternerMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	randSet := func(universe int) []int32 {
		return sortedSet(func() []int32 {
			n := rng.Intn(6)
			vals := make([]int32, n)
			for i := range vals {
				vals[i] = int32(rng.Intn(universe))
			}
			return vals
		}())
	}
	for trial := 0; trial < 200; trial++ {
		dst := NewInterner[int32]()
		src := NewInterner[int32]()
		universe := 4 + rng.Intn(12) // small universe forces overlap
		for i, n := 0, rng.Intn(20); i < n; i++ {
			dst.Intern(randSet(universe))
		}
		for i, n := 0, rng.Intn(20); i < n; i++ {
			src.Intern(randSet(universe))
		}
		checkMergeAgainstRef(t, dst, src)
	}
}

// TestInternerMergeEmpty pins the edge cases: empty src, empty dst, and
// the empty set as a member.
func TestInternerMergeEmpty(t *testing.T) {
	dst, src := NewInterner[int32](), NewInterner[int32]()
	if remap := dst.Merge(src); len(remap) != 0 {
		t.Fatalf("empty merge returned %v", remap)
	}
	src.Intern(nil)
	src.Intern([]int32{3})
	checkMergeAgainstRef(t, dst, src)
}

// TestInternerCollisionChain forces three sets into one fingerprint
// bucket, as if their fingerprints collided, by rewiring the interner's
// chains: every set's bucket starts at the newest set and walks down
// to the oldest. Intern, Lookup and Merge must walk past the head: the
// sets keep distinct IDs in first-intern order, every set stays
// findable, and Merge rebases chained and new sets alike.
func TestInternerCollisionChain(t *testing.T) {
	sets := [][]int32{{1}, {1, 2}, {2, 5, 9}}
	dst := NewInterner[int32]()
	for i, s := range sets {
		if id := dst.Intern(s); id != SetID(i) {
			t.Fatalf("Intern(%v) = %d, want %d", s, id, i)
		}
	}
	// One chain 2 → 1 → 0, reachable from each set's fingerprint.
	for id := range sets {
		dst.next[id] = SetID(id) - 1
		dst.head[Fingerprint64(sets[id])] = SetID(len(sets) - 1)
	}
	for i, s := range sets {
		if id := dst.Lookup(s); id != SetID(i) {
			t.Fatalf("Lookup(%v) = %d, want %d", s, id, i)
		}
		if id := dst.Intern(s); id != SetID(i) {
			t.Fatalf("re-Intern(%v) = %d, want %d", s, id, i)
		}
	}
	if dst.Len() != len(sets) {
		t.Fatalf("Len = %d, want %d", dst.Len(), len(sets))
	}
	if id := dst.Lookup([]int32{4}); id != -1 {
		t.Fatalf("Lookup(missing) = %d, want -1", id)
	}

	// src holds two chained sets of dst, out of order, around two sets
	// of its own.
	src := NewInterner[int32]()
	for _, s := range [][]int32{{7}, {1}, {1, 2}, {8, 9}} {
		src.Intern(s)
	}
	checkMergeAgainstRef(t, dst, src)
}

// FuzzInternerMerge decodes the input into two interning sequences
// (element stream chopped into sets by a width stream) and checks Merge
// against the map-based reference.
func FuzzInternerMerge(f *testing.F) {
	f.Add([]byte{}, []byte{}, []byte{})
	f.Add([]byte{2, 2}, []byte{0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 3}, []byte{1, 3})
	f.Add([]byte{1, 1, 1}, []byte{0, 0, 0, 7, 0, 0, 0, 7, 0, 0, 0, 9}, []byte{0, 2, 1})
	f.Fuzz(func(t *testing.T, widthsA, raw, widthsB []byte) {
		elems := decodeInt32s(raw)
		chop := func(widths []byte) [][]int32 {
			var sets [][]int32
			rest := elems
			for _, w := range widths {
				n := int(w % 8)
				if n > len(rest) {
					n = len(rest)
				}
				sets = append(sets, sortedSet(rest[:n]))
				rest = rest[n:]
			}
			return sets
		}
		dst, src := NewInterner[int32](), NewInterner[int32]()
		for _, s := range chop(widthsA) {
			dst.Intern(s)
		}
		for _, s := range chop(widthsB) {
			src.Intern(s)
		}
		checkMergeAgainstRef(t, dst, src)
	})
}
