// Differential proof of the durability subsystem: a session recovered
// from any crash point — every WAL record boundary, torn mid-record
// tails, mid-snapshot and mid-compaction windows — must be
// fingerprint-identical to the live session at the last acknowledged
// mutation, and discovery on the recovered session must return the same
// slices, profit for profit.
package store

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"midas"
	"midas/internal/datagen"
	"midas/internal/testutil"
)

// op is one scripted mutation, applied identically to the live session
// and to the WAL.
type op struct {
	facts  []midas.Fact
	format string // KB load when non-empty
	body   []byte
	slices []AbsorbSlice
}

func (o op) apply(sess *midas.Session) {
	switch {
	case o.format != "":
		if _, err := sess.KB().LoadTSV(bytes.NewReader(o.body)); err != nil {
			panic(err)
		}
	case o.slices != nil:
		for _, sl := range o.slices {
			sess.Absorb(midas.Slice{Source: sl.Source, Entities: sl.Entities})
		}
	default:
		sess.AddFacts(o.facts...)
	}
}

func (o op) log(t *testing.T, l *Log) {
	t.Helper()
	var err error
	switch {
	case o.format != "":
		err = l.AppendKB(o.format, o.body)
	case o.slices != nil:
		err = l.AppendAbsorb(o.slices)
	default:
		err = l.AppendFacts(o.facts)
	}
	if err != nil {
		t.Fatalf("append: %v", err)
	}
}

// buildScript generates a deterministic mutation stream covering every
// op type: fact batches from a synthetic world, a KB bulk load, and an
// absorb of a genuinely discovered slice.
func buildScript(t *testing.T) []op {
	t.Helper()
	world := datagen.ReVerbSlim(datagen.SlimParams{Domains: 6, GoodDomains: 3, Seed: 7})
	var facts []midas.Fact
	for _, e := range world.Corpus.Facts {
		s, p, o := world.Corpus.Space.StringTriple(e.Triple)
		facts = append(facts, midas.Fact{
			Subject: s, Predicate: p, Object: o,
			Confidence: float64(e.Conf),
			URL:        world.Corpus.URLs.String(e.URL),
		})
	}
	if len(facts) < 40 {
		t.Fatalf("world too small: %d facts", len(facts))
	}
	half := len(facts) / 2
	chunk := half/3 + 1
	var ops []op
	for i := 0; i < half; i += chunk {
		end := i + chunk
		if end > half {
			end = half
		}
		ops = append(ops, op{facts: facts[i:end]})
	}
	// A KB bulk load by content, mid-stream.
	var tsv bytes.Buffer
	for _, f := range facts[:8] {
		fmt.Fprintf(&tsv, "%s\t%s\t%s\n", f.Subject, f.Predicate, f.Object)
	}
	ops = append(ops, op{format: "tsv", body: tsv.Bytes()})
	// An absorb of a real discovered slice at this point in the stream.
	probe := midas.NewSession(nil, nil)
	for _, o := range ops {
		o.apply(probe)
	}
	res, err := probe.DiscoverContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Slices) == 0 {
		t.Fatal("probe discovery found no slices")
	}
	sl := res.Slices[0]
	ops = append(ops, op{slices: []AbsorbSlice{{Source: sl.Source, Entities: sl.Entities}}})
	for i := half; i < len(facts); i += chunk {
		end := i + chunk
		if end > len(facts) {
			end = len(facts)
		}
		ops = append(ops, op{facts: facts[i:end]})
	}
	return ops
}

// oracle builds a fresh session that applied ops[:n] — the
// never-crashed reference.
func oracle(ops []op, n int) *midas.Session {
	sess := midas.NewSession(nil, nil)
	for _, o := range ops[:n] {
		o.apply(sess)
	}
	return sess
}

func decodeNil([]byte) (*midas.Options, error) { return nil, nil }

func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		out := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(out, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(out, b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func recoverDir(t *testing.T, dir string) (*Store, *Recovery) {
	t.Helper()
	st, err := Open(Options{Dir: dir, Fsync: PolicyNone})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	rec, err := st.Recover(context.Background(), decodeNil)
	if err != nil {
		t.Fatal(err)
	}
	return st, rec
}

// sameDiscovery asserts two sessions produce identical discovery
// results, slice for slice, profits included.
func sameDiscovery(t *testing.T, label string, a, b *midas.Session) {
	t.Helper()
	ra, err := a.DiscoverContext(context.Background())
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	rb, err := b.DiscoverContext(context.Background())
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !reflect.DeepEqual(ra.Slices, rb.Slices) {
		t.Fatalf("%s: discovery diverged\noracle:    %+v\nrecovered: %+v", label, ra.Slices, rb.Slices)
	}
}

// driveStore opens a store at dir, creates session "s1", applies+logs
// every op, and returns the live session, the log, and the byte offset
// of every record boundary in segment 1 (boundary b = state after the
// create record and ops[:b-1]; boundary 0 is the segment header alone).
func driveStore(t *testing.T, dir string) (*Store, *midas.Session, *Log, []op, []int64, []uint64) {
	t.Helper()
	st, err := Open(Options{Dir: dir, Fsync: PolicyNone})
	if err != nil {
		t.Fatal(err)
	}
	live := midas.NewSession(nil, nil)
	l, err := st.Create("s1", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "sessions", "s1", segmentName(1))
	headerSize := int64(len(walMagic) + 1) // 4-byte magic + uvarint(1)
	ops := buildScript(t)
	boundaries := []int64{headerSize, fileSize(t, seg)}
	fps := []uint64{live.Fingerprint()}
	for _, o := range ops {
		o.apply(live)
		o.log(t, l)
		boundaries = append(boundaries, fileSize(t, seg))
		fps = append(fps, live.Fingerprint())
	}
	return st, live, l, ops, boundaries, fps
}

// TestRecoverAtEveryRecordBoundary is the core differential proof:
// truncate the WAL at every record boundary and at torn mid-record
// offsets, recover, and require the recovered session to equal the
// oracle that applied exactly the surviving prefix.
func TestRecoverAtEveryRecordBoundary(t *testing.T) {
	dir := t.TempDir()
	st, live, _, ops, boundaries, fps := driveStore(t, dir)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_ = live

	nB := len(boundaries)
	for b := 0; b < nB; b++ {
		// Torn offsets probe inside the next record's frame.
		cuts := []int64{boundaries[b]}
		if b+1 < nB {
			next := boundaries[b+1]
			cuts = append(cuts, boundaries[b]+1, (boundaries[b]+next)/2, next-1)
		}
		for ci, cut := range cuts {
			if ci > 0 && cut <= boundaries[b] {
				continue
			}
			label := fmt.Sprintf("boundary %d cut %d", b, cut)
			cp := copyDir(t, dir)
			seg := filepath.Join(cp, "sessions", "s1", segmentName(1))
			if err := os.Truncate(seg, cut); err != nil {
				t.Fatal(err)
			}
			_, rec := recoverDir(t, cp)
			if b == 0 {
				// The create record itself is gone or torn: the creation
				// was never acknowledged, so the session must be dropped.
				if len(rec.Sessions) != 0 || len(rec.Quarantined) != 0 || len(rec.Dropped) != 1 {
					t.Fatalf("%s: want 1 dropped, got %+v", label, rec)
				}
				continue
			}
			if len(rec.Sessions) != 1 || len(rec.Quarantined) != 0 {
				t.Fatalf("%s: want 1 session, got %d (quarantined %d)",
					label, len(rec.Sessions), len(rec.Quarantined))
			}
			r := rec.Sessions[0]
			if r.Fingerprint != fps[b-1] {
				t.Fatalf("%s: fingerprint %016x, want %016x", label, r.Fingerprint, fps[b-1])
			}
			if ci > 0 && !r.TornTail {
				t.Errorf("%s: mid-record cut not reported as torn tail", label)
			}
		}
	}

	// Full-depth slice comparison at a mid boundary and the final one.
	for _, b := range []int{nB / 2, nB - 1} {
		if b < 1 {
			continue
		}
		cp := copyDir(t, dir)
		seg := filepath.Join(cp, "sessions", "s1", segmentName(1))
		if err := os.Truncate(seg, boundaries[b]); err != nil {
			t.Fatal(err)
		}
		_, rec := recoverDir(t, cp)
		if len(rec.Sessions) != 1 {
			t.Fatalf("boundary %d: want 1 session", b)
		}
		sameDiscovery(t, fmt.Sprintf("boundary %d", b), oracle(ops, b-1), rec.Sessions[0].Session)
	}
}

// TestRecoverThenContinue proves the recovered log is live: recover at
// a mid boundary, replay the remaining script against the recovered
// session and log, then recover again and compare with the
// never-crashed oracle.
func TestRecoverThenContinue(t *testing.T) {
	dir := t.TempDir()
	st, _, _, ops, boundaries, _ := driveStore(t, dir)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	b := len(boundaries) / 2 // ops[:b-1] survived
	cp := copyDir(t, dir)
	if err := os.Truncate(filepath.Join(cp, "sessions", "s1", segmentName(1)), boundaries[b]); err != nil {
		t.Fatal(err)
	}
	st2, rec := recoverDir(t, cp)
	if len(rec.Sessions) != 1 {
		t.Fatalf("want 1 session, got %+v", rec)
	}
	r := rec.Sessions[0]
	for _, o := range ops[b-1:] {
		o.apply(r.Session)
		o.log(t, r.Log)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec2 := recoverDir(t, cp)
	if len(rec2.Sessions) != 1 {
		t.Fatalf("second recovery: want 1 session, got %+v", rec2)
	}
	full := oracle(ops, len(ops))
	if got, want := rec2.Sessions[0].Fingerprint, full.Fingerprint(); got != want {
		t.Fatalf("fingerprint after continue %016x, want %016x", got, want)
	}
	sameDiscovery(t, "continue", full, rec2.Sessions[0].Session)
}

// TestSnapshotCompaction: a snapshot mid-stream compacts the log, and
// recovery from snapshot + replay equals the oracle; crash windows
// inside the snapshot protocol (stray tmp, new segment without the
// rename, stale superseded files) all recover.
func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, Fsync: PolicyNone})
	if err != nil {
		t.Fatal(err)
	}
	live := midas.NewSession(nil, nil)
	l, err := st.Create("s1", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	ops := buildScript(t)
	half := len(ops) / 2
	for _, o := range ops[:half] {
		o.apply(live)
		o.log(t, l)
	}
	preSnap := copyDir(t, dir)
	if err := l.Snapshot(live); err != nil {
		t.Fatal(err)
	}
	sdir := filepath.Join(dir, "sessions", "s1")
	if _, err := os.Stat(filepath.Join(sdir, segmentName(1))); !os.IsNotExist(err) {
		t.Error("superseded segment 1 not deleted")
	}
	if _, err := os.Stat(filepath.Join(sdir, snapshotName(2))); err != nil {
		t.Fatalf("snapshot missing: %v", err)
	}
	for _, o := range ops[half:] {
		o.apply(live)
		o.log(t, l)
	}
	wantFP := live.Fingerprint()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	check := func(t *testing.T, dir string, wantReplayed int) *Recovery {
		t.Helper()
		_, rec := recoverDir(t, dir)
		if len(rec.Sessions) != 1 || len(rec.Quarantined) != 0 {
			t.Fatalf("recovery: %+v", rec)
		}
		if got := rec.Sessions[0].Fingerprint; got != wantFP {
			t.Fatalf("fingerprint %016x, want %016x", got, wantFP)
		}
		if wantReplayed >= 0 && rec.Sessions[0].Replayed != wantReplayed {
			t.Fatalf("replayed %d, want %d", rec.Sessions[0].Replayed, wantReplayed)
		}
		return rec
	}

	t.Run("clean", func(t *testing.T) {
		cp := copyDir(t, dir)
		rec := check(t, cp, len(ops)-half)
		sameDiscovery(t, "snapshot", oracle(ops, len(ops)), rec.Sessions[0].Session)
	})

	t.Run("stray-tmp", func(t *testing.T) {
		// Crash before the snapshot rename: a garbage .tmp lies around.
		cp := copyDir(t, dir)
		tmp := filepath.Join(cp, "sessions", "s1", snapshotName(3)+".tmp")
		if err := os.WriteFile(tmp, []byte("partial snapshot junk"), 0o644); err != nil {
			t.Fatal(err)
		}
		check(t, cp, len(ops)-half)
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Error("stray snapshot tmp survived recovery compaction")
		}
	})

	t.Run("segment-without-snapshot", func(t *testing.T) {
		// Crash after creating the next segment but before the snapshot
		// rename: the extra empty segment replays as nothing.
		cp := copyDir(t, dir)
		f, err := os.Create(filepath.Join(cp, "sessions", "s1", segmentName(3)))
		if err != nil {
			t.Fatal(err)
		}
		if err := writeSegmentHeader(f, 3); err != nil {
			t.Fatal(err)
		}
		f.Close()
		check(t, cp, len(ops)-half)
	})

	t.Run("stale-superseded-files", func(t *testing.T) {
		// Crash after the rename but before the superseded files are
		// deleted: old snapshot-less segment 1 coexists with snap-2.
		cp := copyDir(t, preSnap)
		for _, name := range []string{snapshotName(2), segmentName(2)} {
			b, err := os.ReadFile(filepath.Join(dir, "sessions", "s1", name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(cp, "sessions", "s1", name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		rec := check(t, cp, -1)
		if _, err := os.Stat(filepath.Join(cp, "sessions", "s1", segmentName(1))); !os.IsNotExist(err) {
			t.Error("stale segment 1 survived recovery compaction")
		}
		_ = rec
	})
}

// TestQuarantine: a snapshot whose stamp does not match the restored
// session must quarantine the session, not serve or delete it.
func TestQuarantine(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, Fsync: PolicyNone})
	if err != nil {
		t.Fatal(err)
	}
	live := midas.NewSession(nil, nil)
	l, err := st.Create("s1", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	ops := buildScript(t)
	for _, o := range ops[:2] {
		o.apply(live)
		o.log(t, l)
	}
	if err := l.Snapshot(live); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Tamper with the fingerprint stamp but keep the frame valid: the
	// file parses, the state decodes, and only the recovery invariant
	// (restored Fingerprint() == stamp) can catch it.
	snap := filepath.Join(dir, "sessions", "s1", snapshotName(2))
	b, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	var payload []byte
	if n, clean, _ := scanRecords(bytes.NewReader(b[len(snapMagic):]), func(p []byte) error {
		payload = append([]byte(nil), p...)
		return nil
	}); n != 1 || !clean {
		t.Fatal("snapshot not one clean record")
	}
	// Payload layout: name, options, fp uvarint, epoch, state. Decode
	// far enough to find the fp bytes and rewrite them.
	tampered := tamperFingerprint(t, payload)
	var out bytes.Buffer
	out.WriteString(snapMagic)
	out.Write(frameRecord(tampered))
	if err := os.WriteFile(snap, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	stDir := dir
	_, rec := recoverDir(t, stDir)
	if len(rec.Sessions) != 0 || len(rec.Quarantined) != 1 {
		t.Fatalf("want 1 quarantined, got %+v", rec)
	}
	q := rec.Quarantined[0]
	if q.Name != "s1" || !strings.Contains(q.Err.Error(), "fingerprint mismatch") {
		t.Fatalf("quarantine record: %+v", q)
	}
	if _, err := os.Stat(filepath.Join(dir, "sessions", "s1")); !os.IsNotExist(err) {
		t.Error("quarantined session still under sessions/")
	}
	if _, err := os.Stat(q.Dir); err != nil {
		t.Errorf("quarantined files not preserved: %v", err)
	}
}

// tamperFingerprint rewrites the fp stamp inside a snapshot payload,
// leaving everything else intact.
func tamperFingerprint(t *testing.T, payload []byte) []byte {
	t.Helper()
	r := bytes.NewReader(payload)
	skipBytes := func() { // length-prefixed field
		n, err := readUvarint(r)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Seek(int64(n), io.SeekCurrent); err != nil {
			t.Fatal(err)
		}
	}
	skipBytes() // name
	skipBytes() // options
	fpStart := len(payload) - r.Len()
	fp, err := readUvarint(r)
	if err != nil {
		t.Fatal(err)
	}
	fpEnd := len(payload) - r.Len()
	var out bytes.Buffer
	out.Write(payload[:fpStart])
	writeUvarint(&out, fp^0xdeadbeef)
	out.Write(payload[fpEnd:])
	return out.Bytes()
}

// TestDeleteTombstone: delete removes the session's files; a crash that
// leaves the directory in trash/ must not resurrect the session.
func TestDeleteTombstone(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, Fsync: PolicyNone})
	if err != nil {
		t.Fatal(err)
	}
	l1, err := st.Create("dead", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Create("alive", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := l1.AppendFacts([]midas.Fact{{Subject: "a", Predicate: "b", Object: "c", URL: "http://x/", Confidence: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := l1.Delete(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "sessions", "dead")); !os.IsNotExist(err) {
		t.Fatal("deleted session dir still present")
	}
	if err := l1.AppendFacts(nil); err != ErrClosed {
		t.Fatalf("append after delete: %v, want ErrClosed", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash mid-delete: the rename into trash happened, the RemoveAll
	// did not. Recovery must empty the trash, not resurrect.
	src := filepath.Join(dir, "sessions", "alive")
	if err := os.MkdirAll(filepath.Join(dir, "trash"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(src, filepath.Join(dir, "trash", "alive-12345")); err != nil {
		t.Fatal(err)
	}
	_, rec := recoverDir(t, dir)
	if len(rec.Sessions) != 0 || len(rec.Dropped) != 0 || len(rec.Quarantined) != 0 {
		t.Fatalf("tombstoned session resurrected: %+v", rec)
	}
	if _, err := os.Stat(filepath.Join(dir, "trash")); !os.IsNotExist(err) {
		t.Error("trash not emptied by recovery")
	}
}

// TestKill: the in-process SIGKILL freezes the store — appends fail
// with ErrKilled, nothing flushes — and everything acked before the
// kill recovers.
func TestKill(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, Fsync: PolicyBatch, BatchInterval: 1})
	if err != nil {
		t.Fatal(err)
	}
	live := midas.NewSession(nil, nil)
	l, err := st.Create("s1", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	ops := buildScript(t)
	for _, o := range ops[:3] {
		o.apply(live)
		o.log(t, l)
	}
	st.Kill()
	if err := l.AppendFacts(ops[3].facts); err != ErrKilled {
		t.Fatalf("append after kill: %v, want ErrKilled", err)
	}
	if _, err := st.Create("s2", nil); err != ErrClosed {
		t.Fatalf("create after kill: %v, want ErrClosed", err)
	}
	st.Kill() // idempotent

	_, rec := recoverDir(t, dir)
	if len(rec.Sessions) != 1 {
		t.Fatalf("recovery after kill: %+v", rec)
	}
	if got, want := rec.Sessions[0].Fingerprint, live.Fingerprint(); got != want {
		t.Fatalf("fingerprint %016x, want %016x", got, want)
	}
}

// TestCreateKillRace: a Create in flight when Kill lands must not leak
// a live log — either the create loses (ErrClosed) or its log is taken
// down with the rest. The leaked-syncer regression this pins surfaced
// as a goroutine leak in the soak harness's restart mode.
func TestCreateKillRace(t *testing.T) {
	before := testutil.Goroutines()
	for round := 0; round < 50; round++ {
		st, err := Open(Options{Dir: t.TempDir(), Fsync: PolicyBatch, BatchInterval: 1})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan *Log, 8)
		for i := 0; i < 4; i++ {
			go func(i int) {
				l, err := st.Create(fmt.Sprintf("s%d", i), nil)
				if err != nil {
					l = nil
				}
				done <- l
			}(i)
		}
		st.Kill()
		for i := 0; i < 4; i++ {
			if l := <-done; l != nil {
				// A create that won the race: its log must still die
				// with the store, not accept post-kill appends.
				if err := l.AppendAbsorb(nil); err == nil {
					t.Fatal("append succeeded on a killed store's log")
				}
			}
		}
	}
	if leaks := testutil.Leaked(before, 5*time.Second); len(leaks) > 0 {
		t.Fatalf("goroutines leaked: %v", leaks)
	}
}

// TestCacheRoundTrip: the persisted result memo is memoized again by
// the recovered session when it is still current, and is absent after
// damage or a later mutation, never an error.
func TestCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, Fsync: PolicyNone})
	if err != nil {
		t.Fatal(err)
	}
	live := midas.NewSession(nil, nil)
	l, err := st.Create("s1", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	ops := buildScript(t)
	for _, o := range ops {
		o.apply(live)
		o.log(t, l)
	}
	res, err := live.DiscoverContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	l.SaveCache(res)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	recoverOne := func(dir string) (*Store, Recovered) {
		t.Helper()
		st, rec := recoverDir(t, dir)
		if len(rec.Sessions) != 1 {
			t.Fatalf("recovery: %+v", rec)
		}
		return st, rec.Sessions[0]
	}

	_, r := recoverOne(copyDir(t, dir))
	got := r.Session.Cached()
	if got == nil {
		t.Fatal("memo not restored")
	}
	if !reflect.DeepEqual(got.Slices, res.Slices) {
		t.Fatalf("memoized slices diverged\nwant %+v\ngot  %+v", res.Slices, got.Slices)
	}
	if fp := r.Session.Fingerprint(); got.Fingerprint != fp || fp != res.Fingerprint {
		t.Fatalf("memo fp %016x, recovered fp %016x, want %016x", got.Fingerprint, fp, res.Fingerprint)
	}

	// Damaged file: truncate → no memo.
	cp := copyDir(t, dir)
	cpath := filepath.Join(cp, "sessions", "s1", cacheName)
	if err := os.Truncate(cpath, fileSize(t, cpath)/2); err != nil {
		t.Fatal(err)
	}
	if _, r := recoverOne(cp); r.Session.Cached() != nil {
		t.Error("damaged cache file should leave no memo")
	}

	// Stale file: one more AddFacts record after the save → no memo.
	cp = copyDir(t, dir)
	st2, r := recoverOne(cp)
	late := midas.Fact{
		Subject: "late entity", Predicate: "kind", Object: "late kind",
		Confidence: 0.9, URL: "http://late.example.com/wiki/late.htm",
	}
	if err := r.Log.AppendFacts([]midas.Fact{late}); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, r := recoverOne(cp); r.Session.Cached() != nil || r.Fingerprint == res.Fingerprint {
		t.Errorf("stale cache file memoized (recovered fp %016x, saved at %016x)", r.Fingerprint, res.Fingerprint)
	}
}

func readUvarint(r *bytes.Reader) (uint64, error) {
	var v uint64
	var shift uint
	for {
		b, err := r.ReadByte()
		if err != nil {
			return 0, err
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
		shift += 7
	}
}

func writeUvarint(w *bytes.Buffer, v uint64) {
	for v >= 0x80 {
		w.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	w.WriteByte(byte(v))
}
