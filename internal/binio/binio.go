// Package binio provides small helpers for length-prefixed,
// varint-encoded binary formats: a Writer and Reader that capture the
// first error and keep subsequent calls cheap, in the style of
// bufio + encoding/binary.
package binio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// ErrCorrupt reports structurally invalid input.
var ErrCorrupt = errors.New("binio: corrupt input")

// Writer accumulates varint-encoded values, capturing the first error.
type Writer struct {
	w   *bufio.Writer
	err error
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Uvarint writes an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	if w.err != nil {
		return
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, w.err = w.w.Write(buf[:n])
}

// Int writes a non-negative int as an unsigned varint.
func (w *Writer) Int(v int) {
	if v < 0 {
		w.fail(fmt.Errorf("binio: negative value %d", v))
		return
	}
	w.Uvarint(uint64(v))
}

// Bytes writes a length-prefixed byte string.
func (w *Writer) Bytes(b []byte) {
	w.Uvarint(uint64(len(b)))
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(b)
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) { w.Bytes([]byte(s)) }

// Magic writes a fixed 4-byte tag.
func (w *Writer) Magic(tag string) {
	if w.err != nil {
		return
	}
	if len(tag) != 4 {
		w.fail(fmt.Errorf("binio: magic %q must be 4 bytes", tag))
		return
	}
	_, w.err = w.w.WriteString(tag)
}

// Flush flushes buffered output and returns the first error.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Err returns the first error.
func (w *Writer) Err() error { return w.err }

func (w *Writer) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// Reader decodes values written by Writer, capturing the first error.
type Reader struct {
	r   *bufio.Reader
	err error
	// MaxBytes bounds a single length-prefixed string (default 64 MiB)
	// to keep corrupt lengths from exhausting memory.
	MaxBytes uint64
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r), MaxBytes: 64 << 20}
}

// Uvarint reads an unsigned varint. Only the shortest encoding (the
// one Writer emits) is accepted, so a decoded stream re-encodes to the
// bytes it came from.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	var v uint64
	for shift := uint(0); ; shift += 7 {
		b, err := r.r.ReadByte()
		if err != nil {
			if shift > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			r.fail(err)
			return 0
		}
		if (b == 0 && shift > 0) || (shift == 63 && b > 1) {
			r.fail(fmt.Errorf("%w: non-canonical varint", ErrCorrupt))
			return 0
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v
		}
	}
}

// Int reads a non-negative int.
func (r *Reader) Int() int {
	v := r.Uvarint()
	if r.err == nil && v > uint64(int(^uint(0)>>1)) {
		r.fail(ErrCorrupt)
		return 0
	}
	return int(v)
}

// Bytes reads a length-prefixed byte string.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > r.MaxBytes {
		r.fail(fmt.Errorf("%w: string length %d exceeds cap", ErrCorrupt, n))
		return nil
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r.r, buf); err != nil {
		r.fail(err)
		return nil
	}
	return buf
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// Magic consumes and verifies a 4-byte tag.
func (r *Reader) Magic(tag string) {
	if r.err != nil {
		return
	}
	var buf [4]byte
	if _, err := io.ReadFull(r.r, buf[:]); err != nil {
		r.fail(err)
		return
	}
	if string(buf[:]) != tag {
		r.fail(fmt.Errorf("%w: bad magic %q, want %q", ErrCorrupt, buf, tag))
	}
}

// Err returns the first error.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}
