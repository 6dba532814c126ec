package kb

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"time"

	"midas/internal/binio"
	"midas/internal/dict"
	"midas/internal/obs"
)

// The binary codec. Every binary format of the module — the public KB
// ("MKB1") and corpus ("MCO2") streams, the session state block
// ("MSS1"), and the WAL facts record — is a composition of three
// pieces, so each format decision lives in one place:
//
//   - a section (WriteSection/ReadSection): a count, then the strings
//     of one dictionary in ascending ID order — all of them, or only
//     the IDs a structure uses;
//   - triple rows (WriteRows/ReadRows): a count, then per triple S
//     delta-encoded over the sorted triples, P, and O, each an index
//     into its section;
//   - fact rows (internal/fact): S, P, O, URL, Float32bits(conf).
//
// Readers Put section strings into a destination dictionary and remap
// row indexes through the result, so a stream loads into any space.
//
// MKB1: the magic, the used subject, predicate, and object sections,
// then the triple rows.

const kbMagic = "MKB1"

// Local maps a dictionary's IDs to the indexes WriteSection wrote them
// at. The nil Local is the identity: a full section keeps every ID.
type Local []uint32

// Of returns id's index in the section.
func (l Local) Of(id dict.ID) uint64 {
	if l == nil {
		return uint64(uint32(id))
	}
	return uint64(l[id])
}

// Dicts returns the space's dictionaries in section order: subjects,
// predicates, objects.
func (sp *Space) Dicts() [3]*dict.Dict {
	return [3]*dict.Dict{sp.Subjects, sp.Predicates, sp.Objects}
}

// WriteSection writes d's strings in ascending ID order: all of them
// when used is nil, else only the IDs marked in used. used is sized to
// d when the marks are taken, so strings interned since are left out.
// It returns the ID → local-index table for the row writers.
func WriteSection(bw *binio.Writer, d *dict.Dict, used []bool) Local {
	strs := d.Strings()
	if used == nil {
		bw.Int(len(strs))
		for _, s := range strs {
			bw.String(s)
		}
		return nil
	}
	local := make(Local, len(used))
	n := 0
	for id, u := range used {
		if u {
			local[id] = uint32(n)
			n++
		}
	}
	bw.Int(n)
	for id, u := range used {
		if u {
			bw.String(strs[id])
		}
	}
	return local
}

// ReadSection reads one section, Putting each string into d, and
// returns the local → ID remap (nil once br has failed).
func ReadSection(br *binio.Reader, d *dict.Dict) []dict.ID {
	n := br.Int()
	if br.Err() != nil {
		return nil
	}
	// Preallocation is capped: every entry costs at least one stream
	// byte, so a corrupt count fails at read time instead of forcing a
	// huge allocation up front.
	remap := make([]dict.ID, 0, min(n, 4096))
	for i := 0; i < n; i++ {
		s := br.String()
		if br.Err() != nil {
			return nil
		}
		remap = append(remap, d.Put(s))
	}
	return remap
}

// WriteRows writes triple rows through the S, P, O section tables.
// triples must be sorted (Triples order): sections keep ascending ID
// order, so local S indexes never decrease and S is stored as the delta
// from the previous row.
func WriteRows(bw *binio.Writer, triples []Triple, local [3]Local) {
	bw.Int(len(triples))
	var prevS uint64
	for _, t := range triples {
		s := local[0].Of(t.S)
		bw.Uvarint(s - prevS)
		prevS = s
		bw.Uvarint(local[1].Of(t.P))
		bw.Uvarint(local[2].Of(t.O))
	}
}

// ReadRows reads triple rows, remapping every index through its
// section's remap, and calls fn per triple; fn's error stops the read.
func ReadRows(br *binio.Reader, remap [3][]dict.ID, fn func(Triple) error) error {
	n := br.Int()
	nS, nP, nO := uint64(len(remap[0])), uint64(len(remap[1])), uint64(len(remap[2]))
	var s uint64
	for i := 0; i < n; i++ {
		ds, p, o := br.Uvarint(), br.Uvarint(), br.Uvarint()
		if err := br.Err(); err != nil {
			return err
		}
		if ds >= nS || s+ds >= nS || p >= nP || o >= nO {
			return fmt.Errorf("%w: triple %d references out-of-range string", binio.ErrCorrupt, i)
		}
		s += ds
		if err := fn(Triple{S: remap[0][s], P: remap[1][p], O: remap[2][o]}); err != nil {
			return err
		}
	}
	return br.Err()
}

// WriteBinary serializes the KB in the compact binary format.
func (k *KB) WriteBinary(w io.Writer) error {
	triples := k.Triples()
	// Marks are sized after the snapshot: every ID a triple holds was
	// assigned before the triple was added.
	dicts := k.space.Dicts()
	var used [3][]bool
	for i, d := range dicts {
		used[i] = make([]bool, d.Len())
	}
	for _, t := range triples {
		used[0][t.S], used[1][t.P], used[2][t.O] = true, true, true
	}
	bw := binio.NewWriter(w)
	bw.Magic(kbMagic)
	var local [3]Local
	for i, d := range dicts {
		local[i] = WriteSection(bw, d, used[i])
	}
	WriteRows(bw, triples, local)
	return bw.Flush()
}

// ReadBinary loads a binary KB stream into the receiver (interning into
// its space), returning the number of facts added.
func (k *KB) ReadBinary(r io.Reader) (int, error) {
	return k.ReadBinaryContext(context.Background(), r)
}

// ReadBinaryContext is ReadBinary with span tracing: the load records a
// "kb/load_binary" span as a child of ctx's span, or as a root span on
// the default tracer when ctx carries none.
func (k *KB) ReadBinaryContext(ctx context.Context, r io.Reader) (int, error) {
	start := time.Now()
	added := 0
	_, span := obs.StartSpanOrRoot(ctx, "kb/load_binary")
	defer func() {
		k.recordLoad("binary", added, time.Since(start))
		span.Arg("added", strconv.Itoa(added)).End()
	}()
	br := binio.NewReader(r)
	br.Magic(kbMagic)
	var remap [3][]dict.ID
	for i, d := range k.space.Dicts() {
		remap[i] = ReadSection(br, d)
	}
	err := ReadRows(br, remap, func(t Triple) error {
		if k.Add(t) {
			added++
		}
		return nil
	})
	return added, err
}
