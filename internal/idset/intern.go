package idset

// SetID is a dense identifier for an interned set: IDs are assigned
// 0, 1, 2, … in first-intern order, so they index external arrays
// directly and compare in O(1) — ID equality is set equality.
type SetID int32

// Interner deduplicates sorted sets into a shared append-only arena and
// assigns each distinct set a dense SetID. Lookups are fingerprint-
// bucketed with exact verification, so fingerprint collisions cost a
// comparison, never a wrong ID. Not safe for concurrent use.
type Interner[E Elem] struct {
	// head maps a fingerprint to the newest set in its bucket; next[id]
	// chains to the bucket's next-older set, -1 ending the chain. One
	// map entry per distinct fingerprint, no per-bucket slice.
	head map[uint64]SetID
	next []SetID
	// offs[id] .. offs[id+1] delimit set id in the arena.
	offs  []uint32
	arena []E
}

// NewInterner returns an empty interner.
func NewInterner[E Elem]() *Interner[E] {
	return &Interner[E]{
		head: make(map[uint64]SetID),
		offs: []uint32{0},
	}
}

// Intern returns the ID of set, interning a copy on first sight. set
// must be sorted strictly ascending; it is not retained, so callers may
// pass scratch buffers.
func (in *Interner[E]) Intern(set []E) SetID {
	fp := Fingerprint64(set)
	first, ok := in.head[fp]
	if ok {
		if id := in.find(first, set); id >= 0 {
			return id
		}
	} else {
		first = -1
	}
	id := SetID(len(in.next))
	in.arena = append(in.arena, set...)
	in.offs = append(in.offs, uint32(len(in.arena)))
	in.next = append(in.next, first)
	in.head[fp] = id
	return id
}

// Lookup returns the ID of set without interning it, or -1 when the set
// has not been interned.
func (in *Interner[E]) Lookup(set []E) SetID {
	if first, ok := in.head[Fingerprint64(set)]; ok {
		return in.find(first, set)
	}
	return -1
}

// find walks the bucket chain starting at id for set, returning -1 when
// no set in the chain equals it.
func (in *Interner[E]) find(id SetID, set []E) SetID {
	for ; id >= 0; id = in.next[id] {
		if Equal(in.get(id), set) {
			return id
		}
	}
	return -1
}

// Get returns the interned set as a view into the arena, sorted
// ascending. Callers must not mutate it. Views stay valid across later
// Intern calls (arena growth copies, it never moves live data under a
// returned view's backing array).
func (in *Interner[E]) Get(id SetID) []E { return in.get(id) }

func (in *Interner[E]) get(id SetID) []E {
	return in.arena[in.offs[id]:in.offs[id+1]:in.offs[id+1]]
}

// Len returns the number of distinct sets interned.
func (in *Interner[E]) Len() int { return len(in.offs) - 1 }

// Merge interns every set of src into in, in src's ID order, and
// returns the rebase table: remap[i] is in's SetID for src's SetID i.
// Sets in already holds keep their existing ID, so merging is
// idempotent and order-stable. src is not modified.
//
// This is the bridge for deterministic parallel construction: workers
// intern into private Interners without synchronization, and a
// single-threaded merge rebases each worker's dense local IDs onto the
// shared interner. Because local IDs are assigned in first-intern
// order, replaying a worker's operations through remap reproduces the
// exact sequential interning order.
func (in *Interner[E]) Merge(src *Interner[E]) []SetID {
	remap := make([]SetID, src.Len())
	for id := range remap {
		remap[id] = in.Intern(src.get(SetID(id)))
	}
	return remap
}
