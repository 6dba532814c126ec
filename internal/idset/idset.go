// Package idset is the columnar ID-set substrate shared by the fact,
// hierarchy, kb, and slice layers: an immutable sorted-int32 entity-set
// type, allocation-free merge kernels over sorted integer slices of any
// ID flavor, 64-bit FNV-1a set fingerprints, and an interning table
// that assigns dense IDs to property sets (replacing the byte-string
// node keys the hierarchy used to build per lattice node).
//
// Representation invariants:
//
//   - a Set's backing slice is sorted strictly ascending and is never
//     mutated after construction — set operations return new (or
//     shared) Sets, so Sets may be copied and compared freely;
//   - kernel inputs (Append*, IsSubset, ContainsSorted, the counting
//     helpers) must be sorted strictly ascending; outputs preserve the
//     invariant;
//   - an Interner's arena is append-only, so property-set views
//     returned by Get stay valid (and must not be mutated) for the
//     interner's lifetime, and equal sets always map to the same ID —
//     ID equality is set equality.
package idset

import (
	"fmt"
	"sort"
	"strings"
)

// Elem is any integer ID type the kernels operate on: entity rows and
// subject IDs ([]int32 / []dict.ID) and packed properties (~uint64).
type Elem interface {
	~int32 | ~uint32 | ~int64 | ~uint64
}

// AppendIntersect appends a ∩ b to dst and returns it. dst must not
// alias a or b. With pre-sized dst the kernel does not allocate.
func AppendIntersect[E Elem](dst, a, b []E) []E {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			dst = append(dst, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return dst
}

// AppendUnion appends a ∪ b to dst and returns it. dst must not alias
// a or b. With pre-sized dst the kernel does not allocate.
func AppendUnion[E Elem](dst, a, b []E) []E {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			dst = append(dst, a[i])
			i++
			j++
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		default:
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// AppendDiff appends a \ b to dst and returns it. dst must not alias
// a or b. With pre-sized dst the kernel does not allocate.
func AppendDiff[E Elem](dst, a, b []E) []E {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		default:
			j++
		}
	}
	return append(dst, a[i:]...)
}

// IntersectCount returns |a ∩ b| without materializing it.
func IntersectCount[E Elem](a, b []E) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			n++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// IsSubset reports whether a ⊆ b (merge walk, no allocation).
func IsSubset[E Elem](a, b []E) bool {
	if len(a) > len(b) {
		return false
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] < b[j]:
			return false
		default:
			j++
		}
	}
	return i == len(a)
}

// smallLinear is the set size at or below which membership probes scan
// linearly: for a handful of elements the scan beats binary search on
// branch misses alone.
const smallLinear = 8

// ContainsSorted reports whether x ∈ s.
func ContainsSorted[E Elem](s []E, x E) bool {
	if len(s) <= smallLinear {
		for _, e := range s {
			if e >= x {
				return e == x
			}
		}
		return false
	}
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && s[lo] == x
}

// Equal reports element-wise equality of two sorted slices.
func Equal[E Elem](a, b []E) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The FNV-1a 64-bit parameters, the only definition in the module.
// FingerprintSeed is the offset basis and the initial state for
// AppendFingerprint64 chains: Fingerprint64(s) ==
// AppendFingerprint64(FingerprintSeed, s). FingerprintPrime is the
// multiplier of each xor-multiply round.
const (
	FingerprintSeed  = uint64(14695981039346656037)
	FingerprintPrime = uint64(1099511628211)
)

// Fingerprint64 hashes a sorted slice with FNV-1a over each element's
// eight little-endian bytes. Equal sets produce equal fingerprints;
// distinct sets collide with probability ~2^-64 per pair.
func Fingerprint64[E Elem](s []E) uint64 {
	return AppendFingerprint64(FingerprintSeed, s)
}

// AppendFingerprint64 extends an FNV-1a fingerprint state with the
// elements of s, enabling incremental fingerprints over append-only
// data: hashing a slice in chunks produces the same value as hashing it
// whole. Start chains from FingerprintSeed.
func AppendFingerprint64[E Elem](h uint64, s []E) uint64 {
	for _, e := range s {
		w := uint64(e)
		for b := 0; b < 8; b++ {
			h ^= w & 0xff
			h *= FingerprintPrime
			w >>= 8
		}
	}
	return h
}

// Set is an immutable sorted set of int32 IDs (entity rows or interned
// subject IDs). The zero value is the empty set. Sets are small values
// (one slice header) and are passed by value.
type Set struct {
	elems []int32
}

// FromSorted wraps a strictly-ascending slice as a Set without copying;
// the caller transfers ownership and must not mutate the slice again.
func FromSorted(sorted []int32) Set { return Set{elems: sorted} }

// FromUnsorted copies, sorts, and deduplicates elems into a Set. The
// input slice is not retained or modified.
func FromUnsorted(elems []int32) Set {
	if len(elems) == 0 {
		return Set{}
	}
	own := make([]int32, len(elems))
	copy(own, elems)
	sort.Slice(own, func(i, j int) bool { return own[i] < own[j] })
	out := own[:1]
	for _, e := range own[1:] {
		if e != out[len(out)-1] {
			out = append(out, e)
		}
	}
	return Set{elems: out}
}

// Len returns the number of elements.
func (s Set) Len() int { return len(s.elems) }

// Empty reports whether the set has no elements.
func (s Set) Empty() bool { return len(s.elems) == 0 }

// At returns the i-th smallest element.
func (s Set) At(i int) int32 { return s.elems[i] }

// Values returns the backing slice, sorted ascending. It is a view:
// callers must not mutate it.
func (s Set) Values() []int32 { return s.elems }

// Contains reports whether x is in the set.
func (s Set) Contains(x int32) bool { return ContainsSorted(s.elems, x) }

// IsSubsetOf reports whether s ⊆ t.
func (s Set) IsSubsetOf(t Set) bool { return IsSubset(s.elems, t.elems) }

// Equal reports whether s and t contain the same elements.
func (s Set) Equal(t Set) bool { return Equal(s.elems, t.elems) }

// Fingerprint returns the set's 64-bit FNV-1a fingerprint.
func (s Set) Fingerprint() uint64 { return Fingerprint64(s.elems) }

// String renders the set like a printed int32 slice ("[1 2 3]").
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, e := range s.elems {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", e)
	}
	b.WriteByte(']')
	return b.String()
}

// Intersect returns a ∩ b. When the result equals one of the inputs it
// is returned as-is (Sets are immutable, so sharing is safe); otherwise
// the result is allocated exactly.
func Intersect(a, b Set) Set {
	n := IntersectCount(a.elems, b.elems)
	switch {
	case n == len(a.elems):
		return a
	case n == len(b.elems):
		return b
	case n == 0:
		return Set{}
	}
	return Set{elems: AppendIntersect(make([]int32, 0, n), a.elems, b.elems)}
}

// Union returns a ∪ b, sharing an input when it already is the union.
func Union(a, b Set) Set {
	n := len(a.elems) + len(b.elems) - IntersectCount(a.elems, b.elems)
	switch {
	case n == len(a.elems):
		return a
	case n == len(b.elems):
		return b
	}
	return Set{elems: AppendUnion(make([]int32, 0, n), a.elems, b.elems)}
}

// Difference returns a \ b, sharing a when b removes nothing.
func Difference(a, b Set) Set {
	n := len(a.elems) - IntersectCount(a.elems, b.elems)
	switch {
	case n == len(a.elems):
		return a
	case n == 0:
		return Set{}
	}
	return Set{elems: AppendDiff(make([]int32, 0, n), a.elems, b.elems)}
}

// Jaccard returns |a∩b| / |a∪b|, defining empty/empty as 1.
func Jaccard(a, b Set) float64 {
	if len(a.elems) == 0 && len(b.elems) == 0 {
		return 1
	}
	inter := IntersectCount(a.elems, b.elems)
	return float64(inter) / float64(len(a.elems)+len(b.elems)-inter)
}
