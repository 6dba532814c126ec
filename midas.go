// Package midas implements MIDAS (ICDE 2019): discovery of high-profit
// web source slices for knowledge-base augmentation from the output of
// automated knowledge-extraction pipelines.
//
// A web source slice describes a coherent subset of a web source's
// content — a set of entities sharing (predicate, value) properties,
// such as "rocket families sponsored by NASA" on
// space.skyrocket.de/doc_lau_fam — together with what extracting it
// would contribute to an existing knowledge base. MIDAS scores slices
// with a profit function (gain in new facts minus crawling,
// de-duplication, and validation costs) and discovers the best set
// across millions of sources by exploiting the URL hierarchy.
//
// Basic usage:
//
//	existing := midas.NewKB()
//	existing.Add("Project Mercury", "category", "space_program")
//
//	corpus := midas.NewCorpus(existing)
//	corpus.Add(midas.Fact{
//		Subject: "Atlas", Predicate: "category", Object: "rocket_family",
//		Confidence: 0.92, URL: "http://space.skyrocket.de/doc_lau_fam/atlas.htm",
//	})
//	// ... add the rest of the extraction output ...
//
//	result := midas.Discover(corpus, existing, nil)
//	for _, s := range result.Slices {
//		fmt.Printf("%s — %s (%d new facts, profit %.1f)\n",
//			s.Source, s.Description, s.NewFacts, s.Profit)
//	}
//
// The underlying algorithm (MIDASalg) and the parallel multi-source
// framework are described in DESIGN.md and implemented in the internal
// packages; this package is the stable public surface.
package midas

import (
	"context"
	"io"

	"midas/internal/core"
	"midas/internal/fact"
	"midas/internal/framework"
	"midas/internal/fuse"
	"midas/internal/kb"
	"midas/internal/rdf"
	"midas/internal/reason"
	"midas/internal/slice"
)

// Fact is one extracted fact: an RDF triple with the extraction
// confidence and the URL of the page it was extracted from.
type Fact = fact.Fact

// Detector is the per-source detection phase of the framework: it runs
// slice detection over one web source's fact table, seeded with the
// per-entity property sets. Options.Detect substitutes it; the types it
// operates on live in the internal packages, so custom detectors are a
// testing seam (stall injection, invocation counting), not a public
// extension point.
type Detector = framework.Detector

// CostModel holds the coefficients of the profit function f(S) = gain −
// cost (Definition 9 of the paper): Fp is the per-slice training cost,
// Fc the per-fact crawling cost, Fd the per-fact de-duplication cost,
// and Fv the per-new-fact validation cost.
type CostModel = slice.CostModel

// DefaultCostModel returns the paper's coefficients
// (f_p=10, f_c=0.001, f_d=0.01, f_v=0.1).
func DefaultCostModel() CostModel { return slice.DefaultCostModel() }

// KB is an existing knowledge base: the reference that decides which
// extracted facts are new. The zero value is not usable; call NewKB.
type KB struct {
	store *kb.KB
}

// NewKB returns an empty knowledge base.
func NewKB() *KB {
	return &KB{store: kb.New(kb.NewSpace())}
}

// SetMetrics routes the KB's bulk-load metrics (kb/load_triples, load
// timings, throughput) to m; nil restores DefaultMetrics(). Call before
// loading; not safe concurrently with loads.
func (k *KB) SetMetrics(m *Metrics) { k.store.SetObs(m.registry()) }

// Add inserts a fact, reporting whether it was new.
func (k *KB) Add(subject, predicate, object string) bool {
	return k.store.AddStrings(subject, predicate, object)
}

// Contains reports whether the fact is present.
func (k *KB) Contains(subject, predicate, object string) bool {
	return k.store.ContainsStrings(subject, predicate, object)
}

// Size returns the number of stored facts.
func (k *KB) Size() int { return k.store.Size() }

// LoadTSV reads tab-separated (subject, predicate, object) lines,
// returning the number of new facts added.
func (k *KB) LoadTSV(r io.Reader) (int, error) { return k.store.ReadTSV(r) }

// SaveTSV writes the knowledge base as sorted tab-separated lines.
func (k *KB) SaveTSV(w io.Writer) error { return k.store.WriteTSV(w) }

// LoadBinary reads the compact binary format ("MKB1") written by
// SaveBinary, returning the number of new facts added.
func (k *KB) LoadBinary(r io.Reader) (int, error) { return k.store.ReadBinary(r) }

// LoadNTriples reads W3C N-Triples (or N-Quads; graph terms are
// ignored), returning the number of new facts added.
func (k *KB) LoadNTriples(r io.Reader) (int, error) { return rdf.LoadKB(r, k.store) }

// SaveNTriples writes the knowledge base as N-Triples. Strings that are
// not IRI-safe are wrapped as urn:midas: IRIs so the round trip is
// exact.
func (k *KB) SaveNTriples(w io.Writer) error { return rdf.SaveKB(w, k.store) }

// SaveBinary writes the knowledge base in a compact dictionary-encoded
// binary format ("MKB1": the strings it uses, then delta-encoded
// triples; typically several times smaller than the TSV).
func (k *KB) SaveBinary(w io.Writer) error { return k.store.WriteBinary(w) }

// Corpus collects the output of an automated extraction pipeline.
type Corpus struct {
	c *fact.Corpus
}

// NewCorpus returns an empty corpus. Passing the KB the corpus will be
// discovered against lets the two share interned strings; nil is
// allowed but Discover then requires the same nil KB.
func NewCorpus(existing *KB) *Corpus {
	if existing == nil {
		return &Corpus{c: fact.NewCorpus(nil)}
	}
	return &Corpus{c: fact.NewCorpus(existing.store.Space())}
}

// Add appends an extracted fact.
func (c *Corpus) Add(f Fact) { c.c.Add(f) }

// Len returns the number of facts added.
func (c *Corpus) Len() int { return len(c.c.Facts) }

// LoadNQuads reads W3C N-Quads, using each statement's graph term as
// the source page URL. N-Quads carry no confidence; every fact receives
// defaultConfidence. It returns the number of facts read.
func (c *Corpus) LoadNQuads(r io.Reader, defaultConfidence float64) (int, error) {
	return rdf.LoadCorpus(r, c.c, defaultConfidence)
}

// SaveNQuads writes the corpus as N-Quads (source URLs as graph terms;
// confidences are dropped — use the binary format to preserve them).
func (c *Corpus) SaveNQuads(w io.Writer) error { return rdf.SaveCorpus(w, c.c) }

// LoadBinary appends facts from the compact binary format ("MCO2")
// written by SaveBinary, with each confidence exactly as saved, and
// returns the number read. A confidence outside [0,1] rejects the
// stream.
func (c *Corpus) LoadBinary(r io.Reader) (int, error) { return c.c.ReadBinary(r) }

// SaveBinary writes the corpus in the compact dictionary-encoded binary
// format ("MCO2"), preserving source URLs and the exact float32
// confidences.
func (c *Corpus) SaveBinary(w io.Writer) error { return c.c.WriteBinary(w) }

// Property is one (predicate, value) condition of a slice description.
type Property struct {
	Predicate string
	Value     string
}

// Slice is a discovered web source slice: what to extract (Properties)
// and from where (Source), with its contribution statistics.
type Slice struct {
	// Source is the web source at the granularity MIDAS recommends
	// extracting from (domain, sub-domain path, or page).
	Source string
	// Description renders Properties as a conjunction.
	Description string
	// Properties is the canonical property set defining the slice.
	Properties []Property
	// Entities are the subjects the slice selects.
	Entities []string
	// Facts is the slice's fact count; NewFacts of them are absent from
	// the knowledge base.
	Facts    int
	NewFacts int
	// Profit is the slice's score under the cost model.
	Profit float64
}

// Result is the output of a discovery run, slices sorted by decreasing
// profit.
type Result struct {
	Slices []Slice
	// Rounds is the number of URL-hierarchy levels processed.
	Rounds int
	// SourcesProcessed counts per-source detector invocations.
	SourcesProcessed int
	// SourcesReused counts sources answered from the previous run's
	// cached detection results instead of invoking the detector — only
	// Session discoveries reuse (package-level Discover always runs from
	// scratch, leaving it 0).
	SourcesReused int
	// Fingerprint is the session fingerprint the result was computed at
	// (Session.Fingerprint read under the same lock as the discovery),
	// 0 for package-level Discover. Session.Cached keys its memo by it.
	Fingerprint uint64
}

// Options tunes discovery. The zero value (or nil) uses the paper's
// defaults.
type Options struct {
	// Cost is the profit model (zero value = DefaultCostModel).
	Cost CostModel
	// Workers bounds the run's worker budget (0 = GOMAXPROCS). The
	// budget is shared between source-level parallelism (concurrent
	// shards) and lattice-level parallelism within each source's
	// hierarchy build; results are identical for every setting.
	Workers int
	// MinConfidence drops extracted facts at or below this confidence
	// before discovery (the paper uses 0.7; 0 keeps everything).
	MinConfidence float64
	// Fuse runs confidence-weighted conflict resolution before
	// discovery (the data-fusion preprocessing the paper cites):
	// on predicates that look functional, conflicting objects for one
	// subject collapse to the highest-confidence value.
	Fuse bool
	// MaxPropsPerEntity and MaxInitCombos bound per-entity lattice
	// seeding (0 = library defaults; see internal/hierarchy).
	MaxPropsPerEntity int
	MaxInitCombos     int
	// MaxSlices imposes an extraction budget: after discovery, at most
	// this many slices are kept, selected greedily by marginal profit
	// over the fact union (0 = keep everything).
	MaxSlices int
	// NumericBucketWidth, when positive, rewrites numeric object values
	// of predominantly-numeric predicates into ranges of this width
	// before discovery ("started = 1957" → "started = [1950,1960)"),
	// enabling the generalized properties the paper sketches.
	NumericBucketWidth float64
	// TypeOntology, with TypePredicates, expands type facts along
	// subclass edges before discovery so slices can form at broader
	// types ("golf courses" and "ski resorts" surfacing together as
	// "sports facilities"). Both must be set for expansion to run, and
	// the ontology must have been created against this corpus's KB (via
	// NewCorpus sharing).
	TypeOntology   *Ontology
	TypePredicates []string
	// Metrics receives the run's observability data (phase timings,
	// pruning counters, worker utilization). nil reports into the
	// shared DefaultMetrics() registry.
	Metrics *Metrics
	// Trace receives the run's spans (pipeline phases down to per-source
	// detect/consolidate), exportable as Chrome trace-event JSON. nil
	// disables tracing.
	Trace *Tracer
	// Detect substitutes the per-source detection phase (nil = MIDASalg).
	// A fault-injection and testing seam: wrappers can stall, count, or
	// perturb detection while the framework's scheduling, consolidation,
	// and reuse logic runs unchanged.
	Detect Detector
}

func (o *Options) orDefault() Options {
	if o == nil {
		return Options{}
	}
	return *o
}

// Discover runs the full MIDAS pipeline — per-source slice discovery
// (MIDASalg) under the parallel multi-source framework with URL-
// hierarchy consolidation — over the corpus against the existing KB
// (nil = build a knowledge base from scratch).
func Discover(corpus *Corpus, existing *KB, opts *Options) *Result {
	res, _ := DiscoverContext(context.Background(), corpus, existing, opts)
	return res
}

// DiscoverContext is Discover with cancellation: on context
// cancellation the slices finalized so far are returned along with the
// context's error.
func DiscoverContext(ctx context.Context, corpus *Corpus, existing *KB, opts *Options) (*Result, error) {
	o := opts.orDefault()
	res, _, err := discover(ctx, corpus, existing, &o, nil)
	return res, err
}

// incremental is what a Session hands discover: the prior run to reuse
// (nil for none), the triples the KB gained since it, and the session's
// partition of its corpus, which the framework gets only when no
// transform rewrote the corpus.
type incremental struct {
	prior *framework.Prior
	delta []kb.Triple
	part  *fact.Partition
}

// discover runs the pipeline, optionally reusing a prior run's
// per-source detection results (Session's incremental path). The
// transforms run before leaf-source fingerprinting inside the
// framework, so a source only reuses when the facts the framework
// actually sees are unchanged — a transform whose output shifted (a
// fused conflict resolved differently, a new bucket boundary) changes
// the fingerprints and forces a rebuild of the affected sources. inc is
// nil for a one-off discovery, which returns no next prior.
func discover(ctx context.Context, corpus *Corpus, existing *KB, o *Options, inc *incremental) (*Result, *framework.Prior, error) {
	c := corpus.c
	if o.MinConfidence > 0 {
		c = c.FilterConfidence(o.MinConfidence)
	}
	if o.Fuse {
		c, _ = fuse.Fuse(c, fuse.DefaultParams())
	}
	if o.NumericBucketWidth > 0 {
		c = fact.BucketNumeric(c, o.NumericBucketWidth, 5)
	}
	if o.TypeOntology != nil && len(o.TypePredicates) > 0 {
		c, _ = reason.ExpandTypes(c, o.TypeOntology.o, o.TypePredicates)
	}
	var store *kb.KB
	if existing != nil {
		store = existing.store
	}
	fo := framework.Options{
		Cost:    o.Cost,
		Workers: o.Workers,
		Obs:     o.Metrics.registry(),
		Trace:   o.Trace.tracer(),
		Detect:  o.Detect,
		Core: core.Options{
			Cost:              o.Cost,
			Workers:           o.Workers,
			MaxPropsPerEntity: o.MaxPropsPerEntity,
			MaxInitCombos:     o.MaxInitCombos,
			Obs:               o.Metrics.registry(),
		},
		OmitNextPrior: inc == nil,
	}
	if inc != nil {
		fo.Prior, fo.Delta = inc.prior, inc.delta
		if c == corpus.c {
			fo.Partition = inc.part
		}
	}
	out, runErr := framework.RunContext(ctx, c, store, fo)
	keep := make([]bool, len(out.Slices))
	if o.MaxSlices > 0 && o.MaxSlices < len(out.Slices) {
		cost := o.Cost
		if cost == (CostModel{}) {
			cost = DefaultCostModel()
		}
		for _, i := range slice.SelectGreedy(out.FactSets, store, cost, o.MaxSlices) {
			keep[i] = true
		}
	} else {
		for i := range keep {
			keep[i] = true
		}
	}
	res := &Result{
		Rounds:           out.Rounds,
		SourcesProcessed: out.SourcesProcessed,
		SourcesReused:    out.SourcesReused,
	}
	for i, s := range out.Slices {
		if keep[i] {
			res.Slices = append(res.Slices, publish(s, c.Space))
		}
	}
	return res, out.NextPrior, runErr
}

// DiscoverSource runs MIDASalg on the facts of a single web source,
// ignoring URL structure. Use Discover for multi-source corpora.
func DiscoverSource(source string, facts []Fact, existing *KB, opts *Options) *Result {
	o := opts.orDefault()
	var store *kb.KB
	var space *kb.Space
	if existing != nil {
		store = existing.store
		space = store.Space()
	} else {
		space = kb.NewSpace()
	}
	var triples []kb.Triple
	for _, f := range facts {
		if o.MinConfidence > 0 && f.Confidence <= o.MinConfidence {
			continue
		}
		triples = append(triples, space.Intern(f.Subject, f.Predicate, f.Object))
	}
	res := core.Discover(source, space, triples, store, core.Options{
		Cost:              o.Cost,
		Workers:           o.Workers,
		MaxPropsPerEntity: o.MaxPropsPerEntity,
		MaxInitCombos:     o.MaxInitCombos,
		Obs:               o.Metrics.registry(),
	})
	out := &Result{SourcesProcessed: 1}
	for _, s := range res.Slices {
		out.Slices = append(out.Slices, publish(s, space))
	}
	return out
}

func publish(s *slice.Slice, space *kb.Space) Slice {
	props := make([]Property, len(s.Props))
	for i, p := range s.Props {
		props[i] = Property{
			Predicate: space.Predicates.String(p.Pred()),
			Value:     space.Objects.String(p.Value()),
		}
	}
	ents := make([]string, s.Entities.Len())
	for i, e := range s.Entities.Values() {
		ents[i] = space.Subjects.String(e)
	}
	return Slice{
		Source:      s.Source,
		Description: s.Description(space),
		Properties:  props,
		Entities:    ents,
		Facts:       s.Facts,
		NewFacts:    s.NewFacts,
		Profit:      s.Profit,
	}
}
