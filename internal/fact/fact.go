// Package fact models extracted facts and per-source fact tables.
//
// An extracted fact is an RDF triple (subject, predicate, object) with an
// extraction confidence and the URL of the web source it came from. The
// paper (Definition 3) organizes the facts of one web source W into a
// fact table F_W with one row per entity (subject) and one column per
// distinct predicate; cells hold value sets. Because each fact maps to
// exactly one (predicate, value) cell entry, a row is equivalently the
// set of the entity's properties (Definition 4), which is the
// representation used here: Entity.Props lists the (pred, value) pairs,
// one per fact, deduplicated, sorted; a parallel newness mask records
// which of those facts are absent from the existing KB.
package fact

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"midas/internal/dict"
	"midas/internal/idset"
	"midas/internal/kb"
	"midas/internal/obs"
	"midas/internal/source"
)

// Property is a (predicate, value) pair from Definition 4, packed into a
// single comparable word: the predicate ID in the high 32 bits and the
// object (value) ID in the low 32 bits. Packed properties sort by
// predicate first, then value, which the hierarchy code relies on.
type Property uint64

// Prop packs a predicate and value ID into a Property.
func Prop(pred, value dict.ID) Property {
	return Property(uint64(uint32(pred))<<32 | uint64(uint32(value)))
}

// Pred returns the predicate ID of the property.
func (p Property) Pred() dict.ID { return dict.ID(p >> 32) }

// Value returns the value (object) ID of the property.
func (p Property) Value() dict.ID { return dict.ID(uint32(p)) }

// Format renders the property as "pred = value" using the space's
// dictionaries.
func (p Property) Format(space *kb.Space) string {
	return fmt.Sprintf("%s = %s", space.Predicates.String(p.Pred()), space.Objects.String(p.Value()))
}

// Fact is a single extracted fact in string form, as emitted by an
// extraction pipeline.
type Fact struct {
	Subject    string
	Predicate  string
	Object     string
	Confidence float64
	URL        string // web page the fact was extracted from
}

// Extracted is the interned form of a Fact. Confidence is kept at float32
// precision: extraction systems report 2-3 significant digits.
type Extracted struct {
	Triple kb.Triple
	URL    dict.ID
	Conf   float32
}

// Corpus is an interned collection of extracted facts from many web
// sources — the output of an automated extraction pipeline that MIDAS
// consumes (e.g., the KnowledgeVault, ReVerb, or NELL datasets).
type Corpus struct {
	Space *kb.Space
	URLs  *dict.Dict
	Facts []Extracted
}

// NewCorpus returns an empty corpus over the given space (a fresh one if
// nil).
func NewCorpus(space *kb.Space) *Corpus {
	if space == nil {
		space = kb.NewSpace()
	}
	return &Corpus{Space: space, URLs: dict.New(1 << 10)}
}

// Add interns and appends a fact.
func (c *Corpus) Add(f Fact) {
	c.Facts = append(c.Facts, Extracted{
		Triple: c.Space.Intern(f.Subject, f.Predicate, f.Object),
		URL:    c.URLs.Put(f.URL),
		Conf:   float32(f.Confidence),
	})
}

// AddTriple appends an already interned fact.
func (c *Corpus) AddTriple(t kb.Triple, url dict.ID, conf float32) {
	c.Facts = append(c.Facts, Extracted{Triple: t, URL: url, Conf: conf})
}

// FilterConfidence returns a corpus view containing only facts with
// confidence strictly above min — the paper keeps facts labeled with
// confidence above 0.7 (KnowledgeVault) or 0.75 (ReVerb, NELL). The
// returned corpus shares the space and URL dictionary.
func (c *Corpus) FilterConfidence(min float64) *Corpus {
	out := &Corpus{Space: c.Space, URLs: c.URLs}
	for _, e := range c.Facts {
		if float64(e.Conf) > min {
			out.Facts = append(out.Facts, e)
		}
	}
	return out
}

// NumURLs returns the number of distinct page URLs in the corpus
// dictionary.
func (c *Corpus) NumURLs() int { return c.URLs.Len() }

// PropSetID identifies an interned property set within one Table's
// PropSets interner: two rows (of the same table) have equal property
// sets iff their PropSet IDs are equal.
type PropSetID = idset.SetID

// PropInterner deduplicates sorted property sets into a shared arena,
// assigning dense PropSetIDs. Hierarchy builders keep their own
// interner (node property sets include subsets no row carries); a
// Table's interner covers exactly its rows.
type PropInterner = idset.Interner[Property]

// NewPropInterner returns an empty property-set interner.
func NewPropInterner() *PropInterner { return idset.NewInterner[Property]() }

// Entity is one row of a fact table: a subject together with its
// deduplicated properties. Props and New are parallel; New[i] reports
// whether the fact (Subject, Props[i].Pred, Props[i].Value) is absent
// from the existing KB. len(Props) is the entity's fact count.
//
// Props is a view into the table's interned property-set arena
// (identical rows share storage) and PropSet is its dense ID; New is a
// sub-slice of a per-table newness arena. Neither may be mutated.
type Entity struct {
	Subject  dict.ID
	PropSet  PropSetID
	Props    []Property
	New      []bool
	NewCount int
}

// Facts returns the entity's fact count |{(s,p,o)}|.
func (e *Entity) Facts() int { return len(e.Props) }

// HasProp reports whether the entity has property p (binary search).
func (e *Entity) HasProp(p Property) bool {
	i := sort.Search(len(e.Props), func(i int) bool { return e.Props[i] >= p })
	return i < len(e.Props) && e.Props[i] == p
}

// Table is the fact table F_W of a single web source W (Definition 3),
// annotated with newness against an existing KB.
type Table struct {
	// Source is the web source URL this table describes. It may be a
	// page, sub-domain, or domain depending on the granularity the
	// framework is processing.
	Source string
	Space  *kb.Space
	// Entities holds one row per distinct subject, sorted by subject ID.
	Entities []Entity
	// PropSets interns the distinct per-row property sets; row Props
	// slices are views into its arena.
	PropSets *PropInterner
	// TotalFacts is |T_W|: the number of deduplicated facts.
	TotalFacts int
	// TotalNew is the number of facts absent from the KB.
	TotalNew int
	// Fingerprint is a 64-bit FNV-1a hash over the table's full content
	// — every (subject, property) row cell together with its newness bit
	// — so two tables with equal fingerprints are interchangeable for
	// detection and consolidation. Incremental runs key cached
	// per-source results by it.
	Fingerprint uint64
}

// NumEntities returns the number of rows.
func (t *Table) NumEntities() int { return len(t.Entities) }

// NumPredicates returns the number of distinct predicates |P| in the
// table.
func (t *Table) NumPredicates() int {
	seen := make(map[dict.ID]struct{})
	for i := range t.Entities {
		for _, p := range t.Entities[i].Props {
			seen[p.Pred()] = struct{}{}
		}
	}
	return len(seen)
}

// Properties returns the distinct property set C_W of the table, sorted.
func (t *Table) Properties() []Property {
	seen := make(map[Property]struct{})
	for i := range t.Entities {
		for _, p := range t.Entities[i].Props {
			seen[p] = struct{}{}
		}
	}
	out := make([]Property, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	slices.Sort(out)
	return out
}

// Build constructs the fact table for one web source from interned
// triples, testing each fact against the existing KB. Duplicate (s,p,o)
// triples collapse to one fact. existing may be nil for an empty KB.
func Build(source string, space *kb.Space, triples []kb.Triple, existing *kb.KB) *Table {
	var m kb.Membership
	if existing != nil {
		m = existing
	}
	return BuildWith(source, space, triples, m)
}

// BuildWith is Build with any Membership view; the framework passes a
// lock-free kb.Frozen so concurrent workers do not contend on the KB's
// read lock. existing must be a nil interface for an empty KB.
func BuildWith(source string, space *kb.Space, triples []kb.Triple, existing kb.Membership) *Table {
	return BuildObs(source, space, triples, existing, nil)
}

// BuildObs is BuildWith reporting table-construction metrics to reg
// (nil falls back to the process-wide obs.Default()).
func BuildObs(source string, space *kb.Space, triples []kb.Triple, existing kb.Membership, reg *obs.Registry) *Table {
	start := time.Now()
	t := buildWith(source, space, triples, existing)
	recordTable(reg, t, time.Since(start))
	return t
}

func buildWith(source string, space *kb.Space, triples []kb.Triple, existing kb.Membership) *Table {
	// Columnar build: flatten to (subject, property) pairs, sort, dedup,
	// then walk per-subject runs. No per-subject maps are allocated; each
	// run's property set is interned so identical rows share one arena
	// view.
	type sp struct {
		s dict.ID
		p Property
	}
	pairs := make([]sp, len(triples))
	for i, tr := range triples {
		pairs[i] = sp{s: tr.S, p: Prop(tr.P, tr.O)}
	}
	slices.SortFunc(pairs, func(a, b sp) int {
		if a.s != b.s {
			return cmp.Compare(a.s, b.s)
		}
		return cmp.Compare(a.p, b.p)
	})
	kept := pairs[:0]
	subjects := 0
	for _, pr := range pairs {
		if len(kept) == 0 || kept[len(kept)-1].s != pr.s {
			subjects++
		} else if kept[len(kept)-1].p == pr.p {
			continue
		}
		kept = append(kept, pr)
	}
	pairs = kept

	t := &Table{Source: source, Space: space, PropSets: NewPropInterner()}
	t.Entities = slices.Grow(t.Entities, subjects)
	// Exact capacity: appends never reallocate, so earlier New views
	// stay valid.
	newArena := make([]bool, 0, len(pairs))
	var scratch []Property
	for i := 0; i < len(pairs); {
		j := i
		for j < len(pairs) && pairs[j].s == pairs[i].s {
			j++
		}
		s := pairs[i].s
		scratch = scratch[:0]
		for k := i; k < j; k++ {
			scratch = append(scratch, pairs[k].p)
		}
		id := t.PropSets.Intern(scratch)
		props := t.PropSets.Get(id)
		start := len(newArena)
		e := Entity{Subject: s, PropSet: id, Props: props}
		for _, p := range props {
			isNew := existing == nil || !existing.Contains(kb.Triple{S: s, P: p.Pred(), O: p.Value()})
			newArena = append(newArena, isNew)
			if isNew {
				e.NewCount++
			}
		}
		e.New = newArena[start:len(newArena):len(newArena)]
		t.TotalFacts += len(props)
		t.TotalNew += e.NewCount
		t.Entities = append(t.Entities, e)
		i = j
	}
	t.computeFingerprint()
	return t
}

// computeFingerprint seals the table's content hash. Call once
// Entities and the newness arena are final; any change to either must
// recompute it.
func (t *Table) computeFingerprint() {
	h := idset.FingerprintSeed
	var w [2]uint64
	for i := range t.Entities {
		e := &t.Entities[i]
		for j, p := range e.Props {
			w[0] = uint64(uint32(e.Subject)) << 1
			if e.New[j] {
				w[0] |= 1
			}
			w[1] = uint64(p)
			h = idset.AppendFingerprint64(h, w[:])
		}
	}
	t.Fingerprint = h
}

// ContainsFact reports whether the triple appears as a cell of the
// table (binary search on the subject-sorted rows, then on the row's
// sorted properties). Incremental runs use it to decide whether a batch
// of newly absorbed KB triples can flip any of the table's newness
// bits.
func (t *Table) ContainsFact(tr kb.Triple) bool {
	i := sort.Search(len(t.Entities), func(i int) bool { return t.Entities[i].Subject >= tr.S })
	if i >= len(t.Entities) || t.Entities[i].Subject != tr.S {
		return false
	}
	return t.Entities[i].HasProp(Prop(tr.P, tr.O))
}

// Reannotate rebuilds the table's newness annotation against a grown
// KB, sharing the immutable row structure (entities, interned property
// sets) with t and allocating only a fresh newness arena. The returned
// table carries recomputed TotalNew and Fingerprint; t is not mutated.
func Reannotate(t *Table, existing kb.Membership) *Table {
	nt := &Table{
		Source:     t.Source,
		Space:      t.Space,
		Entities:   append([]Entity(nil), t.Entities...),
		PropSets:   t.PropSets,
		TotalFacts: t.TotalFacts,
	}
	newArena := make([]bool, 0, t.TotalFacts)
	for i := range nt.Entities {
		e := &nt.Entities[i]
		start := len(newArena)
		e.NewCount = 0
		for _, p := range e.Props {
			isNew := existing == nil || !existing.Contains(kb.Triple{S: e.Subject, P: p.Pred(), O: p.Value()})
			newArena = append(newArena, isNew)
			if isNew {
				e.NewCount++
			}
		}
		e.New = newArena[start:len(newArena):len(newArena)]
		nt.TotalNew += e.NewCount
	}
	nt.computeFingerprint()
	return nt
}

// LeafSource is one normalized web source's share of a corpus: its
// triples in corpus order and an FNV-1a fingerprint chained over them.
// The corpus is append-only, so a source whose facts did not change
// keeps its fingerprint across corpus growth — the cheap dirtiness
// signal incremental runs key on.
type LeafSource struct {
	Triples []kb.Triple
	FP      uint64
}

// Partition is a corpus partitioned by normalized source URL
// (source.Normalize). The corpus is append-only, so a partition is
// extended rather than rebuilt: Extend folds in only the facts added
// since the previous call, appending to each touched source's triples
// and advancing its fingerprint. Facts whose URL normalizes to "" are
// dropped, mirroring the framework's sharding.
type Partition struct {
	// Leaves maps each normalized source to its share of the corpus.
	Leaves map[string]*LeafSource
	// srcOf caches each URL's normalized source.
	srcOf map[dict.ID]string
	// n is the number of corpus facts folded in.
	n int
}

// NewPartition returns an empty partition.
func NewPartition() *Partition {
	return &Partition{Leaves: make(map[string]*LeafSource), srcOf: make(map[dict.ID]string)}
}

// Extend folds in c.Facts[p.Len():]. c must be the corpus earlier calls
// extended the partition from, grown only by appends. A call with
// nothing to fold in writes nothing, so it may run beside readers.
func (p *Partition) Extend(c *Corpus) {
	if len(c.Facts) == p.n {
		return
	}
	var w [2]uint64
	for _, e := range c.Facts[p.n:] {
		src, ok := p.srcOf[e.URL]
		if !ok {
			src = source.Normalize(c.URLs.String(e.URL))
			p.srcOf[e.URL] = src
		}
		if src == "" {
			continue
		}
		ls := p.Leaves[src]
		if ls == nil {
			ls = &LeafSource{FP: idset.FingerprintSeed}
			p.Leaves[src] = ls
		}
		ls.Triples = append(ls.Triples, e.Triple)
		w[0] = uint64(uint32(e.Triple.S))<<32 | uint64(uint32(e.Triple.P))
		w[1] = uint64(uint32(e.Triple.O))
		ls.FP = idset.AppendFingerprint64(ls.FP, w[:])
	}
	p.n = len(c.Facts)
}

// Len returns the number of corpus facts folded in.
func (p *Partition) Len() int { return p.n }

// Source returns the normalized source of a URL the partition has
// folded in ("" for one that normalizes to "").
func (p *Partition) Source(url dict.ID) string { return p.srcOf[url] }

// LeafSources partitions a whole corpus: a new partition extended once.
func LeafSources(c *Corpus) map[string]*LeafSource {
	p := NewPartition()
	p.Extend(c)
	return p.Leaves
}

// Merge combines child fact tables into the table of their common parent
// web source. Entities appearing in several children are unioned
// (properties deduplicated, newness recomputed from the child masks:
// a fact is new iff every child that carries it marks it new — they all
// consult the same KB, so masks agree; the union keeps the first seen).
func Merge(source string, space *kb.Space, children []*Table) *Table {
	return MergeObs(source, space, children, nil)
}

// MergeObs is Merge reporting table-construction metrics to reg (nil
// falls back to the process-wide obs.Default()).
func MergeObs(source string, space *kb.Space, children []*Table, reg *obs.Registry) *Table {
	start := time.Now()
	t := merge(source, space, children)
	recordTable(reg, t, time.Since(start))
	reg.OrDefault().Counter("fact/tables_merged").Inc()
	return t
}

// recordTable publishes one table construction to the registry.
func recordTable(reg *obs.Registry, t *Table, d time.Duration) {
	reg = reg.OrDefault()
	reg.Timer("fact/build_table").Observe(d)
	reg.Counter("fact/tables_built").Inc()
	reg.Counter("fact/table_entities").Add(int64(len(t.Entities)))
	reg.Counter("fact/table_facts").Add(int64(t.TotalFacts))
	reg.Counter("fact/table_new_facts").Add(int64(t.TotalNew))
}

func merge(source string, space *kb.Space, children []*Table) *Table {
	// Columnar merge, mirroring buildWith: flatten every child row to
	// (subject, property, isNew) tuples, stable-sort by (subject,
	// property), keep the first tuple of each (s, p) run (the "first
	// seen" of the doc comment), then assemble per-subject runs.
	type spn struct {
		s dict.ID
		p Property
		n bool
	}
	total := 0
	for _, c := range children {
		total += c.TotalFacts
	}
	tuples := make([]spn, 0, total)
	for _, c := range children {
		for i := range c.Entities {
			e := &c.Entities[i]
			for j, p := range e.Props {
				tuples = append(tuples, spn{s: e.Subject, p: p, n: e.New[j]})
			}
		}
	}
	slices.SortStableFunc(tuples, func(a, b spn) int {
		if a.s != b.s {
			return cmp.Compare(a.s, b.s)
		}
		return cmp.Compare(a.p, b.p)
	})
	kept := tuples[:0]
	subjects := 0
	for _, tu := range tuples {
		if len(kept) == 0 || kept[len(kept)-1].s != tu.s {
			subjects++
		} else if kept[len(kept)-1].p == tu.p {
			continue
		}
		kept = append(kept, tu)
	}
	tuples = kept

	t := &Table{Source: source, Space: space, PropSets: NewPropInterner()}
	t.Entities = slices.Grow(t.Entities, subjects)
	newArena := make([]bool, 0, len(tuples))
	var scratch []Property
	for i := 0; i < len(tuples); {
		j := i
		for j < len(tuples) && tuples[j].s == tuples[i].s {
			j++
		}
		scratch = scratch[:0]
		for k := i; k < j; k++ {
			scratch = append(scratch, tuples[k].p)
		}
		id := t.PropSets.Intern(scratch)
		props := t.PropSets.Get(id)
		start := len(newArena)
		e := Entity{Subject: tuples[i].s, PropSet: id, Props: props}
		for k := i; k < j; k++ {
			newArena = append(newArena, tuples[k].n)
			if tuples[k].n {
				e.NewCount++
			}
		}
		e.New = newArena[start:len(newArena):len(newArena)]
		t.TotalFacts += len(props)
		t.TotalNew += e.NewCount
		t.Entities = append(t.Entities, e)
		i = j
	}
	t.computeFingerprint()
	return t
}
