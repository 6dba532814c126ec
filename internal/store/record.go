package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"

	"midas"
	"midas/internal/binio"
	"midas/internal/dict"
	"midas/internal/fact"
	"midas/internal/kb"
)

// WAL record framing: uvarint payload length, payload, 8-byte
// little-endian FNV-1a checksum of the payload. A record is valid only
// if the full frame is present and the checksum matches; anything less
// is a torn tail. Appends are sequential and the frame is written with
// a single Write, so a tear can only occur at the end of a file — the
// scanner stops at the first invalid frame and reports whether the file
// ended cleanly.

// maxRecordBytes caps a single WAL record (and the snapshot record) at
// read time so a corrupt length cannot exhaust memory. KB bulk-load
// bodies are stored verbatim, so the cap is generous.
const maxRecordBytes = 1 << 30

// Op types, the first uvarint of every WAL record payload.
// Op 2 was an earlier facts encoding (float64 confidence bits); it is
// retired, so such a record decodes as an unknown op and its session is
// quarantined rather than misread.
const (
	opCreate = 1 // session created: name, options JSON
	opKB     = 3 // KB bulk load: format tag, body bytes verbatim
	opAbsorb = 4 // Absorb batch: per slice, source + entities
	opFacts  = 5 // AddFacts batch: full sections + fact rows
)

func checksum(payload []byte) uint64 {
	h := fnv.New64a()
	h.Write(payload)
	return h.Sum64()
}

// frameRecord wraps payload in the WAL frame.
func frameRecord(payload []byte) []byte {
	var lb [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lb[:], uint64(len(payload)))
	buf := make([]byte, 0, n+len(payload)+8)
	buf = append(buf, lb[:n]...)
	buf = append(buf, payload...)
	var cb [8]byte
	binary.LittleEndian.PutUint64(cb[:], checksum(payload))
	return append(buf, cb[:]...)
}

// scanRecords reads framed records from r, calling fn for each valid
// payload. It returns the number of valid records, whether the stream
// ended cleanly (false = torn tail: a truncated or checksum-failing
// final frame, the expected crash artifact), and the first error from
// fn — which aborts the scan and is distinct from tearing.
func scanRecords(r io.Reader, fn func(payload []byte) error) (n int, clean bool, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	for {
		length, err := binary.ReadUvarint(br)
		if err == io.EOF {
			return n, true, nil
		}
		if err != nil {
			return n, false, nil
		}
		if length > maxRecordBytes {
			return n, false, nil
		}
		payload, ok := readFullCapped(br, length)
		if !ok {
			return n, false, nil
		}
		var sum [8]byte
		if _, err := io.ReadFull(br, sum[:]); err != nil {
			return n, false, nil
		}
		if binary.LittleEndian.Uint64(sum[:]) != checksum(payload) {
			return n, false, nil
		}
		if err := fn(payload); err != nil {
			return n, true, err
		}
		n++
	}
}

// readFullCapped reads exactly n bytes from r, growing the buffer in
// bounded chunks as data actually arrives — a corrupt declared length
// can never force a huge allocation the stream cannot back.
func readFullCapped(r io.Reader, n uint64) ([]byte, bool) {
	const chunk = 1 << 16
	buf := make([]byte, 0, min(n, chunk))
	for uint64(len(buf)) < n {
		k := min(n-uint64(len(buf)), chunk)
		off := len(buf)
		buf = append(buf, make([]byte, k)...)
		if _, err := io.ReadFull(r, buf[off:]); err != nil {
			return nil, false
		}
	}
	return buf, true
}

// mutation is one decoded WAL operation.
type mutation struct {
	op      int
	name    string // opCreate
	options []byte // opCreate: options JSON, verbatim
	facts   []midas.Fact
	format  string // opKB: "tsv" | "binary" | "ntriples"
	body    []byte // opKB
	slices  []AbsorbSlice
}

// AbsorbSlice is the replayable projection of an absorbed slice:
// Session.Absorb reads only the source and the entity set.
type AbsorbSlice struct {
	Source   string
	Entities []string
}

func encodeCreate(name string, optionsJSON []byte) []byte {
	var buf bytes.Buffer
	bw := binio.NewWriter(&buf)
	bw.Uvarint(opCreate)
	bw.String(name)
	bw.Bytes(optionsJSON)
	bw.Flush()
	return buf.Bytes()
}

// encodeFacts interns the batch into a scratch corpus and writes it in
// the kb/fact codec: four full sections, then the fact rows. The
// confidence is stored as the float32 AddFacts interns; replay feeds
// back float64(conf), which re-interns to the same bits, so the session
// fingerprint cannot drift.
func encodeFacts(facts []midas.Fact) []byte {
	c := scratchCorpus()
	for _, f := range facts {
		c.Add(f)
	}
	var buf bytes.Buffer
	bw := binio.NewWriter(&buf)
	bw.Uvarint(opFacts)
	for _, d := range c.Dicts() {
		kb.WriteSection(bw, d, nil)
	}
	fact.WriteRows(bw, c.Facts, [4]kb.Local{})
	bw.Flush()
	return buf.Bytes()
}

// scratchCorpus returns an empty corpus over zero-value dictionaries:
// a batch is small, and kb.NewSpace preallocates for a whole KB.
func scratchCorpus() *fact.Corpus {
	return &fact.Corpus{
		Space: &kb.Space{Subjects: new(dict.Dict), Predicates: new(dict.Dict), Objects: new(dict.Dict)},
		URLs:  new(dict.Dict),
	}
}

func encodeKB(format string, body []byte) []byte {
	var buf bytes.Buffer
	bw := binio.NewWriter(&buf)
	bw.Uvarint(opKB)
	bw.String(format)
	bw.Bytes(body)
	bw.Flush()
	return buf.Bytes()
}

func encodeAbsorb(slices []AbsorbSlice) []byte {
	var buf bytes.Buffer
	bw := binio.NewWriter(&buf)
	bw.Uvarint(opAbsorb)
	bw.Int(len(slices))
	for _, sl := range slices {
		bw.String(sl.Source)
		bw.Int(len(sl.Entities))
		for _, e := range sl.Entities {
			bw.String(e)
		}
	}
	bw.Flush()
	return buf.Bytes()
}

// decodeMutation decodes one WAL record payload.
func decodeMutation(payload []byte) (*mutation, error) {
	br := binio.NewReader(bytes.NewReader(payload))
	br.MaxBytes = maxRecordBytes
	m := &mutation{op: int(br.Uvarint())}
	if err := br.Err(); err != nil {
		return nil, err
	}
	switch m.op {
	case opCreate:
		m.name = br.String()
		m.options = br.Bytes()
	case opFacts:
		c := scratchCorpus()
		err := fact.ReadRows(br, c.ReadSections(br), func(e fact.Extracted) error {
			sub, pred, obj := c.Space.StringTriple(e.Triple)
			m.facts = append(m.facts, midas.Fact{
				Subject: sub, Predicate: pred, Object: obj,
				URL: c.URLs.String(e.URL), Confidence: float64(e.Conf),
			})
			return nil
		})
		if err != nil {
			return nil, err
		}
	case opKB:
		m.format = br.String()
		m.body = br.Bytes()
	case opAbsorb:
		nSlices := br.Int()
		if err := br.Err(); err != nil {
			return nil, err
		}
		if nSlices > len(payload) {
			return nil, fmt.Errorf("%w: absorb slice count %d exceeds payload", binio.ErrCorrupt, nSlices)
		}
		m.slices = make([]AbsorbSlice, 0, nSlices)
		for i := 0; i < nSlices; i++ {
			sl := AbsorbSlice{Source: br.String()}
			nEnts := br.Int()
			if err := br.Err(); err != nil {
				return nil, err
			}
			if nEnts > len(payload) {
				return nil, fmt.Errorf("%w: absorb slice %d entity count %d exceeds payload", binio.ErrCorrupt, i, nEnts)
			}
			sl.Entities = make([]string, nEnts)
			for k := range sl.Entities {
				sl.Entities[k] = br.String()
			}
			m.slices = append(m.slices, sl)
		}
	default:
		return nil, fmt.Errorf("%w: unknown op %d", binio.ErrCorrupt, m.op)
	}
	if err := br.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

// apply replays a decoded mutation onto sess. Every logged mutation
// succeeded on the live session before it was acked, so a replay
// failure means divergence — the caller quarantines.
func (m *mutation) apply(sess *midas.Session) error {
	switch m.op {
	case opFacts:
		sess.AddFacts(m.facts...)
	case opKB:
		var err error
		switch m.format {
		case "", "tsv":
			_, err = sess.KB().LoadTSV(bytes.NewReader(m.body))
		case "binary":
			_, err = sess.KB().LoadBinary(bytes.NewReader(m.body))
		case "ntriples":
			_, err = sess.KB().LoadNTriples(bytes.NewReader(m.body))
		default:
			err = fmt.Errorf("unknown KB format %q", m.format)
		}
		if err != nil {
			return fmt.Errorf("replaying KB load: %w", err)
		}
	case opAbsorb:
		for _, sl := range m.slices {
			sess.Absorb(midas.Slice{Source: sl.Source, Entities: sl.Entities})
		}
	case opCreate:
		return fmt.Errorf("%w: create record past the head of the log", binio.ErrCorrupt)
	}
	return nil
}
