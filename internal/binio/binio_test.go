package binio_test

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"midas/internal/binio"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := binio.NewWriter(&buf)
	w.Magic("TST1")
	w.Uvarint(0)
	w.Uvarint(1 << 40)
	w.Int(42)
	w.String("hello")
	w.String("")
	w.Bytes([]byte{0, 1, 2})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := binio.NewReader(&buf)
	r.Magic("TST1")
	if got := r.Uvarint(); got != 0 {
		t.Errorf("uvarint = %d", got)
	}
	if got := r.Uvarint(); got != 1<<40 {
		t.Errorf("uvarint = %d", got)
	}
	if got := r.Int(); got != 42 {
		t.Errorf("int = %d", got)
	}
	if got := r.String(); got != "hello" {
		t.Errorf("string = %q", got)
	}
	if got := r.String(); got != "" {
		t.Errorf("empty string = %q", got)
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte{0, 1, 2}) {
		t.Errorf("bytes = %v", got)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestBadMagic(t *testing.T) {
	r := binio.NewReader(strings.NewReader("XXXXrest"))
	r.Magic("TST1")
	if !errors.Is(r.Err(), binio.ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", r.Err())
	}
}

func TestTruncated(t *testing.T) {
	var buf bytes.Buffer
	w := binio.NewWriter(&buf)
	w.String("some payload")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	r := binio.NewReader(bytes.NewReader(data[:len(data)-3]))
	_ = r.String()
	if r.Err() == nil {
		t.Error("want error on truncated input")
	}
}

func TestLengthCap(t *testing.T) {
	var buf bytes.Buffer
	w := binio.NewWriter(&buf)
	w.Uvarint(1 << 50) // absurd length prefix
	w.Flush()
	r := binio.NewReader(&buf)
	r.Bytes()
	if !errors.Is(r.Err(), binio.ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt for oversized length", r.Err())
	}
}

func TestNegativeInt(t *testing.T) {
	w := binio.NewWriter(&bytes.Buffer{})
	w.Int(-1)
	if w.Err() == nil {
		t.Error("want error for negative int")
	}
}

func TestErrorSticky(t *testing.T) {
	r := binio.NewReader(strings.NewReader(""))
	r.Uvarint() // EOF
	first := r.Err()
	if first == nil {
		t.Fatal("want error")
	}
	r.Uvarint()
	if r.Err() != first {
		t.Error("error not sticky")
	}
}

func TestQuickStrings(t *testing.T) {
	f := func(ss []string) bool {
		var buf bytes.Buffer
		w := binio.NewWriter(&buf)
		w.Int(len(ss))
		for _, s := range ss {
			w.String(s)
		}
		if w.Flush() != nil {
			return false
		}
		r := binio.NewReader(&buf)
		n := r.Int()
		if n != len(ss) {
			return false
		}
		for _, s := range ss {
			if r.String() != s {
				return false
			}
		}
		return r.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestUvarintRejectsNonCanonical(t *testing.T) {
	for _, in := range [][]byte{
		{0x80, 0x00},                                // zero in two bytes
		{0x81, 0x80, 0x00},                          // 1 with a trailing zero group
		bytes.Repeat([]byte{0xff}, 11),              // longer than any uint64
		append(bytes.Repeat([]byte{0xff}, 9), 0x02), // overflows 64 bits
	} {
		r := binio.NewReader(bytes.NewReader(in))
		r.Uvarint()
		if !errors.Is(r.Err(), binio.ErrCorrupt) {
			t.Errorf("% x: err = %v, want ErrCorrupt", in, r.Err())
		}
	}
	r := binio.NewReader(bytes.NewReader(append(bytes.Repeat([]byte{0xff}, 9), 0x01)))
	if got := r.Uvarint(); got != math.MaxUint64 || r.Err() != nil {
		t.Errorf("max uint64 = %d, %v", got, r.Err())
	}
}
