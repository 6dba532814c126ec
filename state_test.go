// Differential proof of the session state block: a session restored
// with ReadState must be fingerprint-identical to the one WriteState
// serialized, and must stay lockstep-identical — fingerprints and
// discovery results slice-for-slice — as both sessions are driven
// through the same further mutations.
package midas_test

import (
	"bytes"
	"context"
	"os"
	"reflect"
	"strings"
	"testing"

	"midas"
	"midas/internal/datagen"
)

func TestStateRoundTrip(t *testing.T) {
	world := datagen.ReVerbSlim(datagen.SlimParams{Domains: 8, GoodDomains: 4, Seed: 11})
	facts := worldFacts(world)
	mainBatch, heldA, heldB := splitHoldback(facts)
	if len(heldA) == 0 || len(heldB) == 0 {
		t.Fatal("holdback split produced empty deltas")
	}

	live := midas.NewSession(nil, nil)
	live.AddFacts(mainBatch...)
	res, err := live.DiscoverContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Slices) == 0 {
		t.Fatal("no slices discovered")
	}
	// Absorb twice: the duplicate adds nothing but advances the epoch
	// past the KB size, which the state block must capture exactly.
	if live.Absorb(res.Slices[0]) == 0 {
		t.Fatal("absorb added nothing")
	}
	live.Absorb(res.Slices[0])
	if live.KBEpoch() <= uint64(live.KB().Size()) {
		t.Fatalf("epoch %d should exceed KB size %d after duplicate absorb",
			live.KBEpoch(), live.KB().Size())
	}

	var buf bytes.Buffer
	if err := live.WriteState(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := midas.ReadState(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}

	check := func(label string) {
		t.Helper()
		if lf, rf := live.Fingerprint(), restored.Fingerprint(); lf != rf {
			t.Fatalf("%s: fingerprint %016x live vs %016x restored", label, lf, rf)
		}
		if le, re := live.KBEpoch(), restored.KBEpoch(); le != re {
			t.Fatalf("%s: epoch %d live vs %d restored", label, le, re)
		}
		if ls, rs := live.KB().Size(), restored.KB().Size(); ls != rs {
			t.Fatalf("%s: KB size %d live vs %d restored", label, ls, rs)
		}
		lr, err := live.DiscoverContext(context.Background())
		if err != nil {
			t.Fatalf("%s: live discover: %v", label, err)
		}
		rr, err := restored.DiscoverContext(context.Background())
		if err != nil {
			t.Fatalf("%s: restored discover: %v", label, err)
		}
		if !reflect.DeepEqual(lr.Slices, rr.Slices) {
			t.Fatalf("%s: discovery diverged\nlive:     %+v\nrestored: %+v",
				label, lr.Slices, rr.Slices)
		}
	}
	check("restore")

	// Drive both sessions through identical further mutations: new IDs
	// must be assigned identically on both sides.
	live.AddFacts(heldA...)
	restored.AddFacts(heldA...)
	check("facts-delta")

	lr, _ := live.DiscoverContext(context.Background())
	if len(lr.Slices) == 0 {
		t.Fatal("no slices after delta")
	}
	sl := lr.Slices[len(lr.Slices)-1]
	if a, b := live.Absorb(sl), restored.Absorb(sl); a != b {
		t.Fatalf("absorb added %d live vs %d restored", a, b)
	}
	live.AddFacts(heldB...)
	restored.AddFacts(heldB...)
	check("absorb-and-more-facts")
}

// TestStateEmptySession pins the degenerate case recovery hits when a
// crash lands right after session creation.
func TestStateEmptySession(t *testing.T) {
	var buf bytes.Buffer
	if err := midas.NewSession(nil, nil).WriteState(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := midas.ReadState(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if fp, want := restored.Fingerprint(), midas.NewSession(nil, nil).Fingerprint(); fp != want {
		t.Fatalf("empty restored fingerprint %016x, want %016x", fp, want)
	}
}

// TestStateCorrupt: decoding must reject, not panic on, damaged blocks.
func TestStateCorrupt(t *testing.T) {
	sess := midas.NewSession(nil, nil)
	sess.AddFacts(sessionCorpusFacts()...)
	var buf bytes.Buffer
	if err := sess.WriteState(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{0, 2, len(full) / 3, len(full) - 1} {
		if _, err := midas.ReadState(bytes.NewReader(full[:cut]), nil); err == nil {
			t.Errorf("truncation at %d decoded without error", cut)
		}
	}
	for _, flip := range []int{4, len(full) / 2} {
		mut := append([]byte(nil), full...)
		mut[flip] ^= 0xff
		// A flipped byte may or may not be structurally detectable, but
		// it must never panic; most positions fail magic/length checks.
		midas.ReadState(bytes.NewReader(mut), nil)
	}
}

// goldenStatePath holds the MSS1 state block of goldenSession, written
// by the original hand-rolled encoder. Durability snapshots embed this
// block, so any byte change would strand existing data dirs.
const goldenStatePath = "testdata/state_mss1.golden"

// goldenSession builds a tiny fixed session whose state block exercises
// every section: a KB loaded out of subject order (so the delta
// encoding sees gaps), strings shared between positions, confidences
// with no short decimal form, and an epoch above the KB size.
func goldenSession(t *testing.T) *midas.Session {
	t.Helper()
	sess := midas.NewSession(nil, nil)
	const kbTSV = "Zeta\tcategory\trocket\n" +
		"Atlas\tcategory\trocket\n" +
		"Atlas\tmanufacturer\tLockheed\n" +
		"Zeta\tcountry\tUSA\n"
	if _, err := sess.KB().LoadTSV(strings.NewReader(kbTSV)); err != nil {
		t.Fatal(err)
	}
	sess.AddFacts(
		midas.Fact{Subject: "Atlas", Predicate: "country", Object: "USA", Confidence: 0.8765, URL: "http://a.example/atlas"},
		midas.Fact{Subject: "Delta", Predicate: "category", Object: "rocket", Confidence: 1, URL: "http://a.example/delta"},
		midas.Fact{Subject: "Delta", Predicate: "manufacturer", Object: "Boeing", Confidence: 0.1 + 0.2, URL: "http://a.example/delta"},
		midas.Fact{Subject: "USA", Predicate: "category", Object: "Zeta", Confidence: 0, URL: "http://b.example/"},
		midas.Fact{Subject: "Delta", Predicate: "category", Object: "rocket", Confidence: 0.75, URL: "http://b.example/"},
	)
	if sess.Absorb(midas.Slice{Source: "a.example", Entities: []string{"Delta"}}) == 0 {
		t.Fatal("absorb added nothing")
	}
	sess.Absorb(midas.Slice{Source: "a.example", Entities: []string{"Delta"}})
	return sess
}

// TestStateGolden pins the MSS1 bytes: the state block of a fixed
// session must match the checked-in block byte for byte, and that block
// must restore to the same fingerprint.
func TestStateGolden(t *testing.T) {
	sess := goldenSession(t)
	var buf bytes.Buffer
	if err := sess.WriteState(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(goldenStatePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("MSS1 bytes changed:\n got %x\nwant %x", buf.Bytes(), want)
	}
	restored, err := midas.ReadState(bytes.NewReader(want), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Fingerprint(), sess.Fingerprint(); got != want {
		t.Fatalf("golden block restores to fingerprint %016x, want %016x", got, want)
	}
}

// FuzzReadState throws arbitrary bytes at the state block decoder that
// recovery trusts a snapshot to. Properties: no panic and no runaway
// allocation on any input, and any accepted block re-encodes to exactly
// the bytes the decoder consumed.
func FuzzReadState(f *testing.F) {
	golden, err := os.ReadFile(goldenStatePath)
	if err != nil {
		f.Fatal(err)
	}
	var empty bytes.Buffer
	if err := midas.NewSession(nil, nil).WriteState(&empty); err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add(empty.Bytes())
	f.Add([]byte("MSS1"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // length cap: the interesting structure is small
		}
		sess, err := midas.ReadState(bytes.NewReader(data), nil)
		if err != nil {
			return // rejected
		}
		var out bytes.Buffer
		if err := sess.WriteState(&out); err != nil {
			t.Fatalf("re-encoding an accepted block: %v", err)
		}
		// The block is self-delimiting; bytes past it are not read.
		if !bytes.HasPrefix(data, out.Bytes()) {
			t.Fatalf("accepted block re-encodes differently:\n  in %x\n out %x", data, out.Bytes())
		}
	})
}
