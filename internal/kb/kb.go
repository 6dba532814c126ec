// Package kb implements the existing knowledge base E: an in-memory,
// indexed RDF triple store.
//
// The store plays the role Freebase plays in the paper: the reference
// against which extracted facts are classified as new or known
// (Definition 9's gain counts facts in slices that are absent from E).
// It supports exact membership tests on (subject, predicate, object)
// triples, per-subject and per-predicate enumeration, set operations used
// by the evaluation harness, and a line-oriented TSV persistence format.
//
// Membership is a flat 64-bit-fingerprint index: each triple hashes to
// an FNV-1a fingerprint over its three ID words, and Contains is one
// map probe plus a struct compare — no nested per-subject map, no
// allocation on the hit path. Fingerprint collisions (two *different*
// triples hashing alike, ~2^-64 per pair) fall back to a rarely-
// populated overflow table, so answers stay exact. Per-subject
// enumeration is served by a separate subject → (predicate, object)
// posting index.
//
// Strings are interned through a shared *dict.Dict triple space so that
// the KB, extracted fact corpora, and silver standards can compare facts
// by ID without re-hashing strings.
package kb

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"midas/internal/dict"
	"midas/internal/idset"
	"midas/internal/obs"
)

// Triple is a fully interned (subject, predicate, object) fact.
type Triple struct {
	S, P, O dict.ID
}

// Less orders triples lexicographically by (S, P, O).
func (t Triple) Less(u Triple) bool {
	if t.S != u.S {
		return t.S < u.S
	}
	if t.P != u.P {
		return t.P < u.P
	}
	return t.O < u.O
}

// fingerprint hashes the triple's three 32-bit ID words with a
// word-at-a-time FNV-1a variant over idset's FNV-1a constants: three
// xor-multiply rounds instead of twelve byte rounds. Membership never trusts the fingerprint alone —
// every probe verifies the full triple and falls back to the overflow
// list — so the hash only has to be cheap and well-spread, not
// byte-exact FNV.
func (t Triple) fingerprint() uint64 {
	h := idset.FingerprintSeed
	h = (h ^ uint64(uint32(t.S))) * idset.FingerprintPrime
	h = (h ^ uint64(uint32(t.P))) * idset.FingerprintPrime
	h = (h ^ uint64(uint32(t.O))) * idset.FingerprintPrime
	return h
}

// Space is the shared interning space for the three RDF positions.
// Subjects, predicates, and objects are interned in separate
// dictionaries: predicates are few and hot, subjects dominate, and
// keeping them separate keeps IDs dense per position.
type Space struct {
	Subjects   *dict.Dict
	Predicates *dict.Dict
	Objects    *dict.Dict
}

// NewSpace returns an empty interning space.
func NewSpace() *Space {
	return &Space{
		Subjects:   dict.New(1 << 12),
		Predicates: dict.New(1 << 8),
		Objects:    dict.New(1 << 12),
	}
}

// Intern interns the three string positions of a fact.
func (sp *Space) Intern(s, p, o string) Triple {
	return Triple{
		S: sp.Subjects.Put(s),
		P: sp.Predicates.Put(p),
		O: sp.Objects.Put(o),
	}
}

// StringTriple resolves t back to strings.
func (sp *Space) StringTriple(t Triple) (s, p, o string) {
	return sp.Subjects.String(t.S), sp.Predicates.String(t.P), sp.Objects.String(t.O)
}

// po packs the (predicate, object) pair of a subject's posting entry.
type po struct {
	p, o dict.ID
}

// KB is the existing knowledge base. It is safe for concurrent readers;
// writers must not run concurrently with readers or other writers.
type KB struct {
	space *Space

	mu sync.RWMutex
	// facts is the membership index: triple fingerprint → the triple.
	// Storing the triple (12 bytes) keeps the probe exact: a hit is
	// confirmed by one struct compare instead of trusting the hash.
	facts map[uint64]Triple
	// over holds the additional triples of any colliding fingerprint;
	// it stays empty in practice and is only scanned after a
	// fingerprint hit with a mismatching triple.
	over map[uint64][]Triple
	// bySubject lists each subject's (predicate, object) pairs in
	// insertion order (deduplicated by the membership index above).
	bySubject map[dict.ID][]po
	// byPredicate counts facts per predicate (used for stats and the
	// Fig. 7-style dataset tables).
	byPredicate map[dict.ID]int
	size        int
	// epoch counts mutating calls, including inserts of already-present
	// triples (the KB's answer set is unchanged but a caller observed a
	// write). Incremental consumers compare epochs instead of sizes:
	// equal epochs guarantee no write happened in between, so cached
	// newness annotations are still valid.
	epoch uint64

	// obs receives bulk-load metrics; nil falls back to obs.Default().
	obs *obs.Registry
}

// New returns an empty KB over the given interning space.
func New(space *Space) *KB {
	if space == nil {
		space = NewSpace()
	}
	return &KB{
		space:       space,
		facts:       make(map[uint64]Triple),
		bySubject:   make(map[dict.ID][]po),
		byPredicate: make(map[dict.ID]int),
	}
}

// Space returns the interning space the KB shares with its callers.
func (k *KB) Space() *Space { return k.space }

// SetObs routes the KB's bulk-load metrics (triples loaded, load phase
// timings, triples/sec throughput) to reg; nil restores the process-wide
// obs.Default(). Call before loading; not safe concurrently with loads.
func (k *KB) SetObs(reg *obs.Registry) { k.obs = reg }

// recordLoad publishes one bulk load (format is "tsv" or "binary").
func (k *KB) recordLoad(format string, added int, d time.Duration) {
	reg := k.obs.OrDefault()
	reg.Timer("kb/load").Observe(d)
	reg.Counter("kb/load_triples").Add(int64(added))
	if secs := d.Seconds(); secs > 0 && added > 0 {
		reg.Gauge("kb/load_triples_per_sec/" + format).Set(float64(added) / secs)
	}
	reg.Gauge("kb/size").Set(float64(k.Size()))
}

// Add inserts an interned triple. It reports whether the triple was new.
func (k *KB) Add(t Triple) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.addLocked(t)
}

func (k *KB) addLocked(t Triple) bool {
	k.epoch++
	if !k.insertMembership(t.fingerprint(), t) {
		return false
	}
	k.bySubject[t.S] = append(k.bySubject[t.S], po{t.P, t.O})
	k.byPredicate[t.P]++
	k.size++
	return true
}

// insertMembership records t under fingerprint fp, reporting whether t
// was new. Colliding fingerprints (a different triple already under fp)
// go to the overflow table.
func (k *KB) insertMembership(fp uint64, t Triple) bool {
	first, ok := k.facts[fp]
	if !ok {
		k.facts[fp] = t
		return true
	}
	if first == t {
		return false
	}
	for _, u := range k.over[fp] {
		if u == t {
			return false
		}
	}
	if k.over == nil {
		k.over = make(map[uint64][]Triple)
	}
	k.over[fp] = append(k.over[fp], t)
	return true
}

// AddStrings interns and inserts a string fact. It reports whether the
// fact was new.
func (k *KB) AddStrings(s, p, o string) bool {
	return k.Add(k.space.Intern(s, p, o))
}

// AddAll inserts every triple in ts, returning the number newly added.
func (k *KB) AddAll(ts []Triple) int {
	k.mu.Lock()
	defer k.mu.Unlock()
	n := 0
	for _, t := range ts {
		if k.addLocked(t) {
			n++
		}
	}
	return n
}

// containsIn is the shared fingerprint probe of *KB and Frozen.
func containsIn(facts map[uint64]Triple, over map[uint64][]Triple, t Triple) bool {
	return containsFP(facts, over, t.fingerprint(), t)
}

// containsFP probes for t under an explicit fingerprint (split out so
// tests can exercise the collision fallback, which real triples cannot
// reach on demand).
func containsFP(facts map[uint64]Triple, over map[uint64][]Triple, fp uint64, t Triple) bool {
	first, ok := facts[fp]
	if !ok {
		return false
	}
	if first == t {
		return true
	}
	for _, u := range over[fp] {
		if u == t {
			return true
		}
	}
	return false
}

// Contains reports whether the interned triple is present.
func (k *KB) Contains(t Triple) bool {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return containsIn(k.facts, k.over, t)
}

// ContainsStrings reports whether the string fact is present. Unknown
// strings are definitionally absent.
func (k *KB) ContainsStrings(s, p, o string) bool {
	si := k.space.Subjects.Lookup(s)
	pi := k.space.Predicates.Lookup(p)
	oi := k.space.Objects.Lookup(o)
	if si == dict.None || pi == dict.None || oi == dict.None {
		return false
	}
	return k.Contains(Triple{si, pi, oi})
}

// HasSubject reports whether any fact about subject s exists.
func (k *KB) HasSubject(s dict.ID) bool {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return len(k.bySubject[s]) > 0
}

// SubjectFacts returns the (predicate, object) pairs recorded for s,
// sorted for determinism.
func (k *KB) SubjectFacts(s dict.ID) []Triple {
	k.mu.RLock()
	defer k.mu.RUnlock()
	pairs := k.bySubject[s]
	if len(pairs) == 0 {
		return nil
	}
	out := make([]Triple, 0, len(pairs))
	for _, key := range pairs {
		out = append(out, Triple{s, key.p, key.o})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Size returns the number of stored facts.
func (k *KB) Size() int {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return k.size
}

// Epoch returns the KB's monotonic mutation counter. It advances on
// every insert attempt — including duplicates, which leave Size
// unchanged — so two equal Epoch readings prove the KB saw no writes in
// between.
func (k *KB) Epoch() uint64 {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return k.epoch
}

// RestoreEpoch forces the mutation counter to e. Crash recovery only:
// a KB rebuilt from a snapshot saw exactly one Add per stored triple,
// while the epoch of the KB that was snapshotted also counted duplicate
// insert attempts — and session fingerprints fold the epoch, so the
// rebuilt KB must resume from the stamped value, not its own count.
func (k *KB) RestoreEpoch(e uint64) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.epoch = e
}

// NumSubjects returns the number of distinct subjects.
func (k *KB) NumSubjects() int {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return len(k.bySubject)
}

// NumPredicates returns the number of distinct predicates with at least
// one fact.
func (k *KB) NumPredicates() int {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return len(k.byPredicate)
}

// PredicateCount returns the number of facts using predicate p.
func (k *KB) PredicateCount(p dict.ID) int {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return k.byPredicate[p]
}

// Triples returns all facts sorted by (S, P, O). Intended for tests,
// persistence, and small KBs; it materializes the full set.
func (k *KB) Triples() []Triple {
	k.mu.RLock()
	defer k.mu.RUnlock()
	out := make([]Triple, 0, k.size)
	for s, pairs := range k.bySubject {
		for _, key := range pairs {
			out = append(out, Triple{s, key.p, key.o})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Clone returns a deep copy sharing the interning space.
func (k *KB) Clone() *KB {
	k.mu.RLock()
	defer k.mu.RUnlock()
	c := New(k.space)
	for fp, t := range k.facts {
		c.facts[fp] = t
	}
	if len(k.over) > 0 {
		c.over = make(map[uint64][]Triple, len(k.over))
		for fp, ts := range k.over {
			c.over[fp] = append([]Triple(nil), ts...)
		}
	}
	for s, pairs := range k.bySubject {
		c.bySubject[s] = append([]po(nil), pairs...)
	}
	for p, n := range k.byPredicate {
		c.byPredicate[p] = n
	}
	c.size = k.size
	c.epoch = k.epoch
	return c
}

// Membership is the read-only triple-membership view consumed by fact
// tables. *KB implements it with reader-writer locking; Frozen
// implements it lock-free.
type Membership interface {
	Contains(Triple) bool
}

// Frozen is a lock-free read-only view of a KB, sharing its fingerprint
// index. It is only valid while the underlying KB receives no writes;
// the multi-source framework freezes the KB once per run, since
// discovery never mutates it, and sheds the read-lock contention that
// otherwise serializes the worker pool.
type Frozen struct {
	facts map[uint64]Triple
	over  map[uint64][]Triple
}

// Frozen returns the lock-free view.
func (k *KB) Frozen() *Frozen {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return &Frozen{facts: k.facts, over: k.over}
}

// Contains reports whether the triple is present.
func (f *Frozen) Contains(t Triple) bool {
	return containsIn(f.facts, f.over, t)
}

// WriteTSV writes the KB as tab-separated (subject, predicate, object)
// lines sorted by triple, suitable for diffing and for ReadTSV.
func (k *KB) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, t := range k.Triples() {
		s, p, o := k.space.StringTriple(t)
		if strings.ContainsAny(s+p+o, "\t\n") {
			return fmt.Errorf("kb: fact (%q,%q,%q) contains tab or newline", s, p, o)
		}
		if _, err := fmt.Fprintf(bw, "%s\t%s\t%s\n", s, p, o); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTSV loads tab-separated facts into the KB, returning the number of
// facts added (duplicates are ignored).
func (k *KB) ReadTSV(r io.Reader) (int, error) {
	return k.ReadTSVContext(context.Background(), r)
}

// ReadTSVContext is ReadTSV with span tracing: the load records a
// "kb/load_tsv" span as a child of ctx's span, or as a root span on the
// default tracer when ctx carries none (so -trace runs see bulk loads
// even outside a pipeline span).
func (k *KB) ReadTSVContext(ctx context.Context, r io.Reader) (int, error) {
	start := time.Now()
	_, span := obs.StartSpanOrRoot(ctx, "kb/load_tsv")
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	added, line := 0, 0
	defer func() {
		k.recordLoad("tsv", added, time.Since(start))
		span.Arg("added", strconv.Itoa(added)).End()
	}()
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		parts := strings.Split(text, "\t")
		if len(parts) != 3 {
			return added, fmt.Errorf("kb: line %d: want 3 tab-separated fields, got %d", line, len(parts))
		}
		if k.AddStrings(parts[0], parts[1], parts[2]) {
			added++
		}
	}
	return added, sc.Err()
}
