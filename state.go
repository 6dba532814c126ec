package midas

import (
	"fmt"
	"io"

	"midas/internal/binio"
	"midas/internal/dict"
	"midas/internal/fact"
	"midas/internal/kb"
)

// Session state block ("MSS1"): the ID-faithful serialization of a
// session's KB and corpus, written into durability snapshots by
// internal/store. Unlike the public SaveBinary formats — which emit
// only the strings a structure uses and remap IDs on load — the state
// block writes the interning dictionaries whole, so local indexes are
// the IDs themselves, plus the KB mutation epoch. That exactness is the
// point: Fingerprint hashes interned IDs and the epoch, and slice
// entity order derives from ID order, so a session restored from a
// state block is fingerprint- and slice-identical to the one that
// wrote it — including for the mutations replayed on top of it from a
// write-ahead log, which re-intern into identical IDs.
//
// Layout, in the kb/fact binary codec:
//
//	"MSS1"
//	4 full sections (subjects, predicates, objects, URLs)
//	KB triple rows
//	KB epoch
//	corpus fact rows, in corpus order
const stateMagic = "MSS1"

// WriteState serializes the session's discovery-relevant state (KB,
// corpus, dictionaries, epoch). It holds the session read lock:
// concurrent discoveries proceed, mutations wait.
func (s *Session) WriteState(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c := s.corpus.c
	bw := binio.NewWriter(w)
	bw.Magic(stateMagic)
	for _, d := range c.Dicts() {
		kb.WriteSection(bw, d, nil)
	}
	kb.WriteRows(bw, s.kb.store.Triples(), [3]kb.Local{})
	bw.Uvarint(s.kb.store.Epoch())
	fact.WriteRows(bw, c.Facts, [4]kb.Local{})
	return bw.Flush()
}

// ReadState reconstructs a session from a state block written by
// WriteState, with the given discovery options (nil = defaults). The
// restored session is fingerprint-identical to the writer; it holds no
// incremental-discovery prior, so its next discovery runs from scratch
// — which the incremental path guarantees is result-identical. The
// decoder accepts only what WriteState emits: a block it accepts
// re-encodes to the same bytes.
func ReadState(r io.Reader, opts *Options) (*Session, error) {
	br := binio.NewReader(r)
	br.Magic(stateMagic)
	space := kb.NewSpace()
	store := kb.New(space)
	corpus := fact.NewCorpus(space)
	remap := corpus.ReadSections(br)
	for sec, ids := range remap {
		for i, id := range ids {
			if id != dict.ID(i) {
				return nil, fmt.Errorf("%w: duplicate string in state section %d", binio.ErrCorrupt, sec)
			}
		}
	}
	var prev kb.Triple
	err := kb.ReadRows(br, [3][]dict.ID(remap[:3]), func(t kb.Triple) error {
		if store.Size() > 0 && !prev.Less(t) {
			return fmt.Errorf("%w: KB triple %d out of order", binio.ErrCorrupt, store.Size())
		}
		prev = t
		store.Add(t)
		return nil
	})
	if err != nil {
		return nil, err
	}
	epoch := br.Uvarint()
	if err := br.Err(); err != nil {
		return nil, err
	}
	if epoch < uint64(store.Size()) {
		return nil, fmt.Errorf("%w: KB epoch %d below triple count %d", binio.ErrCorrupt, epoch, store.Size())
	}
	err = fact.ReadRows(br, remap, func(e fact.Extracted) error {
		corpus.Facts = append(corpus.Facts, e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	store.RestoreEpoch(epoch)
	return newSession(&KB{store: store}, &Corpus{c: corpus}, opts), nil
}

// KBEpoch returns the session KB's mutation epoch — the counter the
// fingerprint folds in. Durability snapshots stamp it so recovery can
// restore it exactly (see internal/store).
func (s *Session) KBEpoch() uint64 {
	return s.kb.store.Epoch()
}
