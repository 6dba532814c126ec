package midas

import (
	"context"
	"math"
	"strings"
	"sync"

	"midas/internal/dict"
	"midas/internal/fact"
	"midas/internal/framework"
	"midas/internal/idset"
	"midas/internal/kb"
	"midas/internal/obs"
)

// Session drives the iterative knowledge-base augmentation loop the
// paper's industrial pipeline targets (Figure 1): discover the most
// profitable slices, extract them (wrapper induction + validation in
// production; Absorb here), and re-discover — each round's
// recommendations shift as the knowledge gaps move.
//
//	sess := midas.NewSession(existing, nil)
//	sess.AddFacts(extractionOutput...)
//	for {
//		res := sess.Discover()
//		if len(res.Slices) == 0 {
//			break
//		}
//		for _, s := range res.Slices[:min(3, len(res.Slices))] {
//			sess.Absorb(s)
//		}
//	}
//
// Session is safe for concurrent use: an RWMutex guards the core, with
// Discover/DiscoverContext, Progress and the other readers running
// under the read lock (so independent discoveries overlap) and the
// mutators (AddFacts, Absorb) serializing as writers. Mutating the KB
// returned by KB() directly, concurrently with a discovery, is not
// synchronized — route KB growth through Absorb or quiesce discoveries
// first.
//
// Lock order: mu, then corpusMu, then the KB's own lock, which every
// KB call takes inside.
type Session struct {
	mu     sync.RWMutex
	kb     *KB
	corpus *Corpus
	opts   Options

	// corpusMu guards everything below, which readers extend or record:
	// the running fingerprint and the corpus index, extended lazily by
	// the reader that next needs them (never by AddFacts), and the
	// prior, delta trail and result memo a completed discovery records.
	// Only readers take it, always under mu's read lock, so it
	// serializes those writes between concurrent readers. The writers
	// (AddFacts, Absorb) hold mu exclusively and touch the state with no
	// inner lock. A corpus only grows under mu's write lock, so once a
	// reader has extended the state it stays current while the reader
	// holds mu.
	corpusMu sync.Mutex
	// factFP is the running FNV-1a fingerprint over the first fpFacts
	// corpus facts; Fingerprint extends it incrementally as the
	// append-only corpus grows.
	factFP  uint64
	fpFacts int
	idx     corpusIndex
	// prior is the reusable per-source state of the last completed
	// discovery; nil forces a from-scratch run.
	prior *framework.Prior
	// delta lists the triples Absorb added to the KB since prior was
	// captured; deltaTo is the KB epoch through which delta is complete.
	// deltaBroken records that the KB was mutated outside Absorb (via
	// KB()) while a prior was held, so delta can no longer be trusted
	// and the next discovery rebuilds from scratch.
	delta       []kb.Triple
	deltaTo     uint64
	deltaBroken bool
	// last is the result of the last completed discovery, stamped with
	// the fingerprint it ran at (see Cached).
	last *Result
}

// corpusIndex is the session's view of its corpus, extended over the
// first n facts (see Session.syncLocked).
type corpusIndex struct {
	n int
	// part partitions the corpus by normalized source; discoveries over
	// the untransformed corpus hand it to the framework.
	part *fact.Partition
	// postings lists each subject's corpus facts by index, for Absorb.
	postings map[dict.ID][]int32
	// triples holds the distinct corpus triples; covered counts those
	// the KB holds, valid while the KB's epoch is covEpoch.
	triples  map[kb.Triple]struct{}
	covered  int
	covEpoch uint64
}

func newSession(k *KB, c *Corpus, opts *Options) *Session {
	return &Session{
		kb:     k,
		corpus: c,
		opts:   opts.orDefault(),
		factFP: idset.FingerprintSeed,
		idx: corpusIndex{
			part:     fact.NewPartition(),
			postings: make(map[dict.ID][]int32),
			triples:  make(map[kb.Triple]struct{}),
		},
	}
}

// NewSession starts a session against an existing KB (nil = build a
// knowledge base from scratch) with the given discovery options.
func NewSession(existing *KB, opts *Options) *Session {
	if existing == nil {
		existing = NewKB()
	}
	return newSession(existing, NewCorpus(existing), opts)
}

// KB returns the session's knowledge base (it grows as slices are
// absorbed). Mutating it while discoveries are in flight is not
// synchronized; see the Session doc comment.
func (s *Session) KB() *KB { return s.kb }

// metrics returns the registry session counters report into: the one
// configured via Options.Metrics, else the process-wide default — the
// same fallback the pipeline itself uses, so a long-running curation
// session exposes its per-iteration counters through the -stats and
// -listen surfaces without extra wiring.
func (s *Session) metrics() *obs.Registry {
	return s.opts.Metrics.registry().OrDefault()
}

// CorpusSize returns the number of extraction facts loaded.
func (s *Session) CorpusSize() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.corpus.Len()
}

// AddFacts appends extraction output to the session corpus. Only the
// touched sources become dirty: the next Discover rebuilds their
// tables and re-detects there, reusing the previous run's results for
// every clean source. AddFacts only appends; the state derived from
// the corpus is extended by the next call that reads it.
func (s *Session) AddFacts(facts ...Fact) {
	s.mu.Lock()
	for _, f := range facts {
		s.corpus.Add(f)
	}
	s.mu.Unlock()
	s.metrics().Counter("session/facts_added").Add(int64(len(facts)))
}

// Fingerprint identifies the discovery-relevant state of the session: a
// 64-bit FNV-1a hash over the fact table (interned triples, source
// URLs, confidences) folded with the KB's fact count and mutation
// epoch. Two calls return the same value iff no facts were added and
// the KB saw no writes in between — including writes that inserted
// only already-known triples, which leave the size unchanged but still
// advance the epoch — so a Discover result stays valid exactly while
// the fingerprint it carries is current, the rule Cached applies. The
// corpus hash is maintained incrementally — on an unchanged session
// this is O(1).
func (s *Session) Fingerprint() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.corpusMu.Lock()
	defer s.corpusMu.Unlock()
	return s.fingerprintLocked()
}

// fingerprintLocked computes the fingerprint under mu's write lock, or
// its read lock and corpusMu.
func (s *Session) fingerprintLocked() uint64 {
	facts := s.corpus.c.Facts
	for _, e := range facts[s.fpFacts:] {
		s.factFP = idset.AppendFingerprint64(s.factFP, []uint64{
			uint64(uint32(e.Triple.S))<<32 | uint64(uint32(e.Triple.P)),
			uint64(uint32(e.Triple.O))<<32 | uint64(uint32(e.URL)),
			uint64(math.Float32bits(e.Conf)),
		})
	}
	s.fpFacts = len(facts)
	return idset.AppendFingerprint64(s.factFP, []uint64{
		uint64(s.kb.Size()),
		s.kb.store.Epoch(),
	})
}

// syncLocked brings the corpus index up to date under mu's write lock,
// or its read lock and corpusMu: it first recounts coverage if the KB
// moved outside Absorb since the count was taken — the rule
// usablePriorLocked applies to the delta trail — and then folds in the
// facts added since the last call, which is O(new facts). With nothing
// new and the count current it writes nothing.
func (s *Session) syncLocked() {
	x := &s.idx
	if epoch := s.kb.store.Epoch(); epoch != x.covEpoch {
		x.covered = 0
		for t := range x.triples {
			if s.kb.store.Contains(t) {
				x.covered++
			}
		}
		x.covEpoch = epoch
	}
	c := s.corpus.c
	if len(c.Facts) == x.n {
		return
	}
	x.part.Extend(c)
	for i, e := range c.Facts[x.n:] {
		t := e.Triple
		x.postings[t.S] = append(x.postings[t.S], int32(x.n+i))
		if _, ok := x.triples[t]; !ok {
			x.triples[t] = struct{}{}
			if s.kb.store.Contains(t) {
				x.covered++
			}
		}
	}
	x.n = len(c.Facts)
}

// SourceFingerprints returns the per-source FNV-1a fingerprints of the
// session corpus, keyed by normalized source URL — the signal the
// incremental path compares across runs to decide which sources are
// dirty. Facts whose URL normalizes to "" are excluded.
func (s *Session) SourceFingerprints() map[string]uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.corpusMu.Lock()
	defer s.corpusMu.Unlock()
	s.syncLocked()
	out := make(map[string]uint64, len(s.idx.part.Leaves))
	for src, ls := range s.idx.part.Leaves {
		out[src] = ls.FP
	}
	return out
}

// Cached returns the result of the last complete discovery if the
// session is still at the fingerprint that discovery ran at, else nil.
// It runs no discovery. The result is shared with every caller that
// gets it, and must not be modified.
func (s *Session) Cached() *Result {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.corpusMu.Lock()
	defer s.corpusMu.Unlock()
	if s.last != nil && s.last.Fingerprint == s.fingerprintLocked() {
		return s.last
	}
	return nil
}

// Remember adopts res as the result Cached returns, but only if
// res.Fingerprint equals the session's current fingerprint, and reports
// whether it did. It restores a result persisted across a restart.
func (s *Session) Remember(res *Result) bool {
	if res == nil {
		return false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.corpusMu.Lock()
	defer s.corpusMu.Unlock()
	if res.Fingerprint != s.fingerprintLocked() {
		return false
	}
	s.last = res
	return true
}

// usablePriorLocked decides, under mu's read lock and corpusMu,
// whether the last completed run can seed this one, and with which KB
// delta. Reuse requires either an untouched KB (epoch equal to the
// prior's) or a delta trail that is provably complete: the KB's epoch
// matches the last Absorb's and no untracked mutation broke the trail
// in between.
func (s *Session) usablePriorLocked() (*framework.Prior, []kb.Triple) {
	epoch := s.kb.store.Epoch()
	if s.prior == nil {
		return nil, nil
	}
	if epoch == s.prior.Epoch {
		return s.prior, nil
	}
	if !s.deltaBroken && epoch == s.deltaTo {
		return s.prior, append([]kb.Triple(nil), s.delta...)
	}
	return nil, nil
}

// Discover runs the full pipeline over the current corpus against the
// current KB.
func (s *Session) Discover() *Result {
	res, _ := s.DiscoverContext(context.Background())
	return res
}

// DiscoverContext is Discover with cancellation: request deadlines and
// client disconnects propagate into the pipeline, which returns the
// slices finalized so far together with the context's error. Multiple
// discoveries may run concurrently (they hold the session's read lock);
// AddFacts and Absorb wait for in-flight discoveries to finish.
//
// Discoveries are incremental: each completed run keeps its per-source
// fact tables and detection results, and the next run visits only the
// sources whose facts changed or whose tables hold a triple absorbed
// since, plus their ancestors, reusing everything else — work
// proportional to the delta, with a result identical to a from-scratch
// run. Result.SourcesReused reports how much was skipped. A completed
// run's result is what Cached returns until the session changes.
func (s *Session) DiscoverContext(ctx context.Context) (*Result, error) {
	reg := s.metrics()
	defer reg.Timer("session/discover").Start()()
	s.mu.RLock()
	s.corpusMu.Lock()
	fp := s.fingerprintLocked()
	s.syncLocked()
	prior, delta := s.usablePriorLocked()
	s.corpusMu.Unlock()
	res, next, err := discover(ctx, s.corpus, s.kb, &s.opts, &incremental{prior, delta, s.idx.part})
	res.Fingerprint = fp
	if err == nil {
		// Record the run's reusable state, restart the delta trail from
		// it, and memoize the result, all before a writer can move the
		// session past fp.
		s.corpusMu.Lock()
		s.prior, s.last = next, res
		s.delta, s.deltaTo, s.deltaBroken = nil, next.Epoch, false
		s.corpusMu.Unlock()
	}
	s.mu.RUnlock()
	reg.Counter("session/discoveries").Inc()
	reg.Gauge("session/last_slices").Set(float64(len(res.Slices)))
	reg.Counter("session/sources_reused").Add(int64(res.SourcesReused))
	return res, err
}

// Absorb simulates extracting a recommended slice: every corpus fact of
// the slice's entities located at or under the slice's source is added
// to the KB. It returns the number of facts that were new. Subsequent
// Discover calls no longer count these facts as gain.
//
// Absorb always advances the KB epoch, but it records the triples it
// actually added, so the next Discover still reuses the detection
// results of every source whose fact table contains none of them —
// only sources carrying the absorbed facts fall back to re-annotation
// and re-detection. A KB mutated outside Absorb (through KB()) breaks
// that trail and the next Discover rebuilds from scratch.
func (s *Session) Absorb(sl Slice) int {
	reg := s.metrics()
	defer reg.Timer("session/absorb").Start()()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.prior != nil && s.kb.store.Epoch() != s.deltaTo {
		// The KB moved since the delta trail last caught up: an
		// untracked mutation slipped in, so completeness is gone.
		s.deltaBroken = true
	}
	s.syncLocked()
	// The corpus shares the KB's space, so an entity string resolves to
	// the subject ID its postings are keyed by; one never interned has
	// no corpus facts.
	subjects := s.kb.store.Space().Subjects
	facts := s.corpus.c.Facts
	under := sl.Source + "/"
	seen := make(map[dict.ID]struct{}, len(sl.Entities))
	added := 0
	var addedTriples []kb.Triple
	for _, e := range sl.Entities {
		id := subjects.Lookup(e)
		if _, dup := seen[id]; dup || id == dict.None {
			continue
		}
		seen[id] = struct{}{}
		for _, i := range s.idx.postings[id] {
			f := facts[i]
			if src := s.idx.part.Source(f.URL); src != sl.Source && !strings.HasPrefix(src, under) {
				continue
			}
			if s.kb.store.Add(f.Triple) {
				added++
				addedTriples = append(addedTriples, f.Triple)
			}
		}
	}
	// Every triple added is a corpus triple the KB did not hold.
	s.idx.covered += added
	s.idx.covEpoch = s.kb.store.Epoch()
	if s.prior != nil && !s.deltaBroken {
		s.delta = append(s.delta, addedTriples...)
	}
	s.deltaTo = s.kb.store.Epoch()
	reg.Counter("session/absorbs").Inc()
	reg.Counter("session/facts_absorbed").Add(int64(added))
	reg.Gauge("session/kb_facts").Set(float64(s.kb.Size()))
	return added
}

// Progress reports the augmentation state: KB size and how much of the
// corpus the KB now covers (deduplicated fact-level coverage). It reads
// counters the session keeps current, so it costs O(facts added since
// the last call) unless the KB was written outside Absorb.
func (s *Session) Progress() (kbFacts int, corpusCovered float64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.corpusMu.Lock()
	s.syncLocked()
	covered, total := s.idx.covered, len(s.idx.triples)
	s.corpusMu.Unlock()
	if total > 0 {
		corpusCovered = float64(covered) / float64(total)
	}
	reg := s.metrics()
	reg.Gauge("session/kb_facts").Set(float64(s.kb.Size()))
	reg.Gauge("session/corpus_coverage").Set(corpusCovered)
	return s.kb.Size(), corpusCovered
}
