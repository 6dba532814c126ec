package fact

import (
	"fmt"
	"io"
	"math"

	"midas/internal/binio"
	"midas/internal/dict"
	"midas/internal/kb"
)

// Binary corpus format ("MCO2"), built from the kb section codec and
// the fact rows below: the subject, predicate, object, and URL sections
// restricted to the strings the corpus uses, then the fact rows. The
// confidence is stored as its exact float32 bits.

const corpusMagic = "MCO2"

// Dicts returns the corpus's dictionaries in section order: subjects,
// predicates, objects, URLs.
func (c *Corpus) Dicts() [4]*dict.Dict {
	return [4]*dict.Dict{c.Space.Subjects, c.Space.Predicates, c.Space.Objects, c.URLs}
}

// ReadSections reads the four sections of a corpus stream into c's
// dictionaries (kb.ReadSection) and returns their remaps.
func (c *Corpus) ReadSections(br *binio.Reader) [4][]dict.ID {
	var remap [4][]dict.ID
	for i, d := range c.Dicts() {
		remap[i] = kb.ReadSection(br, d)
	}
	return remap
}

// WriteRows writes fact rows: a count, then per fact S, P, O, and URL
// as indexes through their section tables and Float32bits(conf).
func WriteRows(bw *binio.Writer, facts []Extracted, local [4]kb.Local) {
	bw.Int(len(facts))
	for _, e := range facts {
		bw.Uvarint(local[0].Of(e.Triple.S))
		bw.Uvarint(local[1].Of(e.Triple.P))
		bw.Uvarint(local[2].Of(e.Triple.O))
		bw.Uvarint(local[3].Of(e.URL))
		bw.Uvarint(uint64(math.Float32bits(e.Conf)))
	}
}

// ReadRows reads fact rows, remapping every index through its section's
// remap, and calls fn per fact; fn's error stops the read.
func ReadRows(br *binio.Reader, remap [4][]dict.ID, fn func(Extracted) error) error {
	n := br.Int()
	for i := 0; i < n; i++ {
		s, p, o, u := br.Uvarint(), br.Uvarint(), br.Uvarint(), br.Uvarint()
		conf := br.Uvarint()
		if err := br.Err(); err != nil {
			return err
		}
		if s >= uint64(len(remap[0])) || p >= uint64(len(remap[1])) ||
			o >= uint64(len(remap[2])) || u >= uint64(len(remap[3])) || conf > math.MaxUint32 {
			return fmt.Errorf("%w: fact %d references out-of-range value", binio.ErrCorrupt, i)
		}
		err := fn(Extracted{
			Triple: kb.Triple{S: remap[0][s], P: remap[1][p], O: remap[2][o]},
			URL:    remap[3][u],
			Conf:   math.Float32frombits(uint32(conf)),
		})
		if err != nil {
			return err
		}
	}
	return br.Err()
}

// WriteBinary serializes the corpus.
func (c *Corpus) WriteBinary(w io.Writer) error {
	dicts := c.Dicts()
	var used [4][]bool
	for i, d := range dicts {
		used[i] = make([]bool, d.Len())
	}
	for _, e := range c.Facts {
		used[0][e.Triple.S], used[1][e.Triple.P], used[2][e.Triple.O], used[3][e.URL] = true, true, true, true
	}
	bw := binio.NewWriter(w)
	bw.Magic(corpusMagic)
	var local [4]kb.Local
	for i, d := range dicts {
		local[i] = kb.WriteSection(bw, d, used[i])
	}
	WriteRows(bw, c.Facts, local)
	return bw.Flush()
}

// ReadBinary appends a binary corpus stream to the receiver, interning
// into its space and URL dictionary. It returns the number of facts
// read. A confidence outside [0,1] (or NaN) rejects the stream.
func (c *Corpus) ReadBinary(r io.Reader) (int, error) {
	br := binio.NewReader(r)
	br.Magic(corpusMagic)
	read := 0
	err := ReadRows(br, c.ReadSections(br), func(e Extracted) error {
		if !(e.Conf >= 0 && e.Conf <= 1) {
			return fmt.Errorf("%w: fact %d confidence %v outside [0,1]", binio.ErrCorrupt, read, e.Conf)
		}
		c.Facts = append(c.Facts, e)
		read++
		return nil
	})
	return read, err
}
