package store

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"midas"
	"midas/internal/binio"
)

// TestReplayExactConfidences: a facts record stores the float32 the
// live session interned, so replaying a batch whose confidences have no
// short decimal form reproduces the live fingerprint (which hashes the
// confidence bits) exactly.
func TestReplayExactConfidences(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, Fsync: PolicyNone})
	if err != nil {
		t.Fatal(err)
	}
	l, err := st.Create("s1", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	live := midas.NewSession(nil, nil)
	batch := []midas.Fact{
		{Subject: "Atlas", Predicate: "sponsor", Object: "NASA", Confidence: 0.8765, URL: "http://a.example/atlas"},
		{Subject: "Atlas", Predicate: "country", Object: "USA", Confidence: 1.0 / 3, URL: "http://a.example/atlas"},
		{Subject: "Castor", Predicate: "sponsor", Object: "NASA", Confidence: 0.123456789, URL: "http://a.example/castor"},
		{Subject: "Castor", Predicate: "sponsor", Object: "NASA", Confidence: 0.1 + 0.2, URL: "http://b.example/"},
	}
	live.AddFacts(batch...)
	if err := l.AppendFacts(batch); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := recoverDir(t, dir)
	if len(rec.Sessions) != 1 {
		t.Fatalf("want 1 session, got %+v", rec)
	}
	if got, want := rec.Sessions[0].Fingerprint, live.Fingerprint(); got != want {
		t.Fatalf("replayed fingerprint %016x, live %016x", got, want)
	}
	sameDiscovery(t, "replay", live, rec.Sessions[0].Session)
}

// TestRetiredFactsOpQuarantines: a facts record in the retired op-2
// encoding (a shared string table, Float64 confidence bits) must fail
// as an unknown op and quarantine its session, never be misread as a
// current record.
func TestRetiredFactsOpQuarantines(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, Fsync: PolicyNone})
	if err != nil {
		t.Fatal(err)
	}
	l, err := st.Create("s1", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	var old bytes.Buffer
	bw := binio.NewWriter(&old)
	bw.Uvarint(2)
	bw.Int(4)
	for _, s := range []string{"Atlas", "sponsor", "NASA", "http://a.example/atlas"} {
		bw.String(s)
	}
	bw.Int(1)
	for _, v := range []uint64{0, 1, 2, 3, 0x3feccccccccccccd} { // 0.9 as float64 bits
		bw.Uvarint(v)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := l.append(old.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(Options{Dir: dir, Fsync: PolicyNone})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rec, err := st2.Recover(context.Background(), decodeNil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Sessions) != 0 || len(rec.Quarantined) != 1 {
		t.Fatalf("want 1 quarantined, got %+v", rec)
	}
	if err := rec.Quarantined[0].Err; !strings.Contains(err.Error(), "unknown op 2") {
		t.Fatalf("quarantine error = %v, want unknown op 2", err)
	}
}
