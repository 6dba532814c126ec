package fact_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"midas/internal/binio"
	"midas/internal/fact"
)

func TestCorpusBinaryRoundTrip(t *testing.T) {
	c := fact.NewCorpus(nil)
	c.Add(fact.Fact{Subject: "Atlas", Predicate: "sponsor", Object: "NASA", Confidence: 0.92, URL: "http://a.com/x"})
	c.Add(fact.Fact{Subject: "Castor", Predicate: "sponsor", Object: "NASA", Confidence: 0.755, URL: "http://a.com/y"})
	// 0.8765 has no 3-digit fixed-point form: the format must keep it.
	c.Add(fact.Fact{Subject: "Castor", Predicate: "country", Object: "USA", Confidence: 0.8765, URL: "http://a.com/y"})

	var buf bytes.Buffer
	if err := c.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	c2 := fact.NewCorpus(nil)
	n, err := c2.ReadBinary(&buf)
	if err != nil || n != 3 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if len(c2.Facts) != 3 {
		t.Fatalf("facts = %d", len(c2.Facts))
	}
	s, p, o := c2.Space.StringTriple(c2.Facts[0].Triple)
	if s != "Atlas" || p != "sponsor" || o != "NASA" {
		t.Errorf("fact 0 = %q %q %q", s, p, o)
	}
	if got := c2.URLs.String(c2.Facts[1].URL); got != "http://a.com/y" {
		t.Errorf("url = %q", got)
	}
	for i, e := range c.Facts {
		if got, want := math.Float32bits(c2.Facts[i].Conf), math.Float32bits(e.Conf); got != want {
			t.Errorf("fact %d conf bits = %08x, want %08x", i, got, want)
		}
	}
}

func TestCorpusBinaryAppends(t *testing.T) {
	src := fact.NewCorpus(nil)
	src.Add(fact.Fact{Subject: "x", Predicate: "p", Object: "1", Confidence: 0.8, URL: "u"})
	var buf bytes.Buffer
	if err := src.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	dst := fact.NewCorpus(nil)
	dst.Add(fact.Fact{Subject: "pre", Predicate: "q", Object: "0", Confidence: 0.9, URL: "v"})
	if _, err := dst.ReadBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if len(dst.Facts) != 2 {
		t.Errorf("facts = %d, want 2 (append semantics)", len(dst.Facts))
	}
}

func TestCorpusBinaryCorrupt(t *testing.T) {
	c := fact.NewCorpus(nil)
	if _, err := c.ReadBinary(bytes.NewReader([]byte("BAD!stream"))); err == nil {
		t.Error("want magic error")
	}
}

// TestCorpusBinaryRejectsMCO1: the retired 3-digit format has no
// reader; its streams fail on the magic, never misread.
func TestCorpusBinaryRejectsMCO1(t *testing.T) {
	// One fact in MCO1: four one-string sections, then S, P, O, URL and
	// the confidence 0.9 as 900 thousandths.
	mco1 := []byte("MCO1\x01\x01s\x01\x01p\x01\x01o\x01\x01u\x01\x00\x00\x00\x00\x84\x07")
	_, err := fact.NewCorpus(nil).ReadBinary(bytes.NewReader(mco1))
	if !errors.Is(err, binio.ErrCorrupt) || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("MCO1 stream: err = %v, want bad magic", err)
	}
}

// TestCorpusBinaryRejectsConfidence: the public reader still refuses
// confidences outside [0,1] and NaN, though the row codec carries any
// float32.
func TestCorpusBinaryRejectsConfidence(t *testing.T) {
	for _, conf := range []float64{-0.5, 1.5, math.NaN()} {
		c := fact.NewCorpus(nil)
		c.Add(fact.Fact{Subject: "s", Predicate: "p", Object: "o", Confidence: conf, URL: "u"})
		var buf bytes.Buffer
		if err := c.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := fact.NewCorpus(nil).ReadBinary(&buf); !errors.Is(err, binio.ErrCorrupt) {
			t.Errorf("confidence %v: err = %v, want ErrCorrupt", conf, err)
		}
	}
}

func TestCorpusBinaryQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := fact.NewCorpus(nil)
		for i := 0; i < rng.Intn(150); i++ {
			c.Add(fact.Fact{
				Subject:    fmt.Sprintf("s%d", rng.Intn(20)),
				Predicate:  fmt.Sprintf("p%d", rng.Intn(5)),
				Object:     fmt.Sprintf("o%d", rng.Intn(25)),
				Confidence: rng.Float64(),
				URL:        fmt.Sprintf("http://h%d.com/p%d", rng.Intn(4), rng.Intn(10)),
			})
		}
		var buf bytes.Buffer
		if err := c.WriteBinary(&buf); err != nil {
			return false
		}
		c2 := fact.NewCorpus(nil)
		if _, err := c2.ReadBinary(&buf); err != nil {
			return false
		}
		if len(c2.Facts) != len(c.Facts) {
			return false
		}
		for i := range c.Facts {
			s1, p1, o1 := c.Space.StringTriple(c.Facts[i].Triple)
			s2, p2, o2 := c2.Space.StringTriple(c2.Facts[i].Triple)
			if s1 != s2 || p1 != p2 || o1 != o2 {
				return false
			}
			if c.URLs.String(c.Facts[i].URL) != c2.URLs.String(c2.Facts[i].URL) {
				return false
			}
			if math.Float32bits(c.Facts[i].Conf) != math.Float32bits(c2.Facts[i].Conf) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
