// Serve-level durability tests: the HTTP surface drives mutations into
// a stored session, the process "dies" (graceful drain or hard kill),
// and a second server recovering from the same data directory must
// answer with the identical session — fingerprint, epoch, cache hits
// and all. Plus the delete-during-discover regression: deleting a
// session cancels its running jobs before the tombstone.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"midas"
	"midas/internal/obs"
	"midas/internal/store"
)

func openTestStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir, Fsync: store.PolicyNone, Registry: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// newDurableServer wires a store into a test server and registers the
// store's cleanup AFTER newTestServer's, so it closes before the
// goroutine-leak check runs (cleanups are LIFO).
func newDurableServer(t *testing.T, st *store.Store, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	opts.Store = st
	s, ts := newTestServer(t, opts)
	t.Cleanup(func() { st.Close() })
	return s, ts
}

type sessInfo struct {
	Session     string `json:"session"`
	CorpusFacts int    `json:"corpus_facts"`
	KBFacts     int    `json:"kb_facts"`
	Fingerprint string `json:"fingerprint"`
	KBEpoch     uint64 `json:"kb_epoch"`
	Recovered   bool   `json:"recovered"`
}

func getSession(t *testing.T, base, name string) sessInfo {
	t.Helper()
	var info sessInfo
	if code := do(t, "GET", base+"/api/sessions/"+name, nil, "", &info); code != 200 {
		t.Fatalf("get session %s: HTTP %d", name, code)
	}
	return info
}

// driveDurableSession pushes the full mutation mix through the API:
// create with non-default options, KB seed, fact batches, a discovery,
// and an absorb of its top slice.
func driveDurableSession(t *testing.T, base, name string) {
	t.Helper()
	body := fmt.Sprintf(`{"name":%q,"options":{"workers":2,"max_slices":16}}`, name)
	if code := do(t, "POST", base+"/api/sessions", strings.NewReader(body), "application/json", nil); code != 201 {
		t.Fatalf("create: HTTP %d", code)
	}
	if code := do(t, "POST", base+"/api/sessions/"+name+"/kb",
		strings.NewReader("alpha entity 0\tkind\talpha\n"), "text/tab-separated-values", nil); code != 200 {
		t.Fatalf("kb load: HTTP %d", code)
	}
	postFacts(t, base, name, corpusFacts("alpha", 25))
	postFacts(t, base, name, corpusFacts("beta", 25))
	j := discoverWait(t, base, name)
	if j.Status != StateDone || j.Slices == 0 {
		t.Fatalf("job = %+v, want done with slices", j)
	}
	var absorbed struct{ Absorbed, Added int }
	ab := fmt.Sprintf(`{"job":%q,"slices":[0]}`, j.Job)
	if code := do(t, "POST", base+"/api/sessions/"+name+"/absorb", strings.NewReader(ab), "application/json", &absorbed); code != 200 {
		t.Fatalf("absorb: HTTP %d", code)
	}
	if absorbed.Added == 0 {
		t.Fatal("absorb added nothing")
	}
}

// TestServeRecoveryRoundTrip: graceful shutdown path. Drain snapshots
// every session; a second server on the same directory restores them
// with identical fingerprints, marks them recovered, and answers an
// unchanged discovery from the persisted result cache.
func TestServeRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	s, ts := newDurableServer(t, st, Options{Registry: obs.New()})

	driveDurableSession(t, ts.URL, "dur")
	// A discovery at the post-absorb state, so the result cache holds an
	// entry at the final fingerprint.
	if j := discoverWait(t, ts.URL, "dur"); j.Status != StateDone {
		t.Fatalf("second discover: %+v", j)
	}
	before := getSession(t, ts.URL, "dur")
	if before.Recovered {
		t.Error("fresh session reports recovered")
	}
	s.Drain(context.Background())
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	ts.Close()

	// Second process lifetime.
	st2 := openTestStore(t, dir)
	reg2 := obs.New()
	s2, ts2 := newDurableServer(t, st2, Options{Registry: reg2})
	rec, err := s2.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Sessions) != 1 || len(rec.Quarantined) != 0 || len(rec.Dropped) != 0 {
		t.Fatalf("recovery: %+v", rec)
	}
	after := getSession(t, ts2.URL, "dur")
	if !after.Recovered {
		t.Error("restored session not marked recovered")
	}
	if after.Fingerprint != before.Fingerprint || after.KBEpoch != before.KBEpoch ||
		after.CorpusFacts != before.CorpusFacts || after.KBFacts != before.KBFacts {
		t.Fatalf("session diverged across restart:\nbefore %+v\nafter  %+v", before, after)
	}

	// The untouched session's discovery must be a result-cache hit: no
	// pipeline run, answered from the persisted cache.
	j := discoverWait(t, ts2.URL, "dur")
	if j.Status != StateDone || !j.Cached {
		t.Fatalf("post-restart discover = %+v, want cached done", j)
	}
	if hits := reg2.Counter("serve/cache/hit").Value(); hits != 1 {
		t.Errorf("serve/cache/hit = %d, want 1", hits)
	}

	// The recovered session is live: mutate, then survive one more
	// restart with the mutation intact.
	postFacts(t, ts2.URL, "dur", corpusFacts("gamma", 5))
	moved := getSession(t, ts2.URL, "dur")
	if moved.Fingerprint == after.Fingerprint {
		t.Fatal("mutation did not move the fingerprint")
	}
	s2.Drain(context.Background())
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	ts2.Close()

	st3 := openTestStore(t, dir)
	s3, ts3 := newDurableServer(t, st3, Options{Registry: obs.New()})
	if _, err := s3.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	final := getSession(t, ts3.URL, "dur")
	if final.Fingerprint != moved.Fingerprint {
		t.Fatalf("second restart fingerprint %s, want %s", final.Fingerprint, moved.Fingerprint)
	}
}

// TestServeRecoveryAfterKill: hard-kill path. No drain, no final
// snapshot, no graceful anything — the store freezes mid-flight and the
// next server must still recover every acknowledged mutation.
func TestServeRecoveryAfterKill(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	_, ts := newDurableServer(t, st, Options{Registry: obs.New()})

	driveDurableSession(t, ts.URL, "k")
	before := getSession(t, ts.URL, "k")
	st.Kill()
	// Acks after the kill must fail — nothing may claim durability the
	// frozen store cannot provide.
	code := do(t, "POST", ts.URL+"/api/sessions/k/facts",
		strings.NewReader(`[{"subject":"x","predicate":"y","object":"z","url":"http://a/"}]`),
		"application/json", nil)
	if code != http.StatusInternalServerError {
		t.Fatalf("facts after kill: HTTP %d, want 500", code)
	}
	ts.Close()

	st2 := openTestStore(t, dir)
	s2, ts2 := newDurableServer(t, st2, Options{Registry: obs.New()})
	rec, err := s2.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Sessions) != 1 || len(rec.Quarantined) != 0 {
		t.Fatalf("recovery after kill: %+v", rec)
	}
	after := getSession(t, ts2.URL, "k")
	if !after.Recovered || after.Fingerprint != before.Fingerprint || after.KBEpoch != before.KBEpoch {
		t.Fatalf("killed session diverged:\nbefore %+v\nafter  %+v", before, after)
	}
}

// TestKBLoadAtomic: a KB load is staged, logged, then applied. A body
// whose last line is malformed is rejected whole (400) on memory-only
// and durable sessions alike, and a load the frozen store cannot log
// is refused (500) without being applied; either way the session's
// fingerprint and KB epoch stay put, and recovery sees no divergence.
func TestKBLoadAtomic(t *testing.T) {
	const bad = "alpha entity 1\tkind\talpha\nalpha entity 2\tkind\talpha\nno-tabs-here\n"
	loadKB := func(base, name, body string) int {
		return do(t, "POST", base+"/api/sessions/"+name+"/kb", strings.NewReader(body), "text/tab-separated-values", nil)
	}
	unchanged := func(label string, before, after sessInfo) {
		t.Helper()
		if after.Fingerprint != before.Fingerprint || after.KBEpoch != before.KBEpoch || after.KBFacts != before.KBFacts {
			t.Fatalf("%s changed the session:\nbefore %+v\nafter  %+v", label, before, after)
		}
	}

	_, mem := newTestServer(t, Options{Registry: obs.New()})
	if code := do(t, "POST", mem.URL+"/api/sessions", strings.NewReader(`{"name":"m"}`), "application/json", nil); code != 201 {
		t.Fatalf("create: HTTP %d", code)
	}
	before := getSession(t, mem.URL, "m")
	if code := loadKB(mem.URL, "m", bad); code != http.StatusBadRequest {
		t.Fatalf("memory-only malformed KB: HTTP %d, want 400", code)
	}
	unchanged("memory-only malformed KB", before, getSession(t, mem.URL, "m"))

	dir := t.TempDir()
	st := openTestStore(t, dir)
	_, ts := newDurableServer(t, st, Options{Registry: obs.New()})
	driveDurableSession(t, ts.URL, "d")
	before = getSession(t, ts.URL, "d")
	if code := loadKB(ts.URL, "d", bad); code != http.StatusBadRequest {
		t.Fatalf("durable malformed KB: HTTP %d, want 400", code)
	}
	unchanged("durable malformed KB", before, getSession(t, ts.URL, "d"))
	st.Kill()
	if code := loadKB(ts.URL, "d", "new entity\tkind\tnew\n"); code != http.StatusInternalServerError {
		t.Fatalf("KB load after kill: HTTP %d, want 500", code)
	}
	unchanged("unlogged KB load", before, getSession(t, ts.URL, "d"))
	ts.Close()

	st2 := openTestStore(t, dir)
	s2, ts2 := newDurableServer(t, st2, Options{Registry: obs.New()})
	rec, err := s2.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Sessions) != 1 || len(rec.Quarantined) != 0 {
		t.Fatalf("recovery: %+v", rec)
	}
	unchanged("recovery", before, getSession(t, ts2.URL, "d"))
}

// TestRecoveredOptionsRestored: session options persist with the create
// record, and the RestoreOptions seam post-processes them at recovery.
func TestRecoveredOptionsRestored(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	_, ts := newDurableServer(t, st, Options{Registry: obs.New()})
	body := `{"name":"opt","options":{"workers":3,"max_slices":7}}`
	if code := do(t, "POST", ts.URL+"/api/sessions", strings.NewReader(body), "application/json", nil); code != 201 {
		t.Fatalf("create: HTTP %d", code)
	}
	st.Kill()
	ts.Close()

	st2 := openTestStore(t, dir)
	var seen *midas.Options
	s2, _ := newDurableServer(t, st2, Options{
		Registry: obs.New(),
		RestoreOptions: func(opts *midas.Options) *midas.Options {
			seen = opts
			return opts
		},
	})
	if _, err := s2.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	if seen == nil || seen.Workers != 3 || seen.MaxSlices != 7 {
		t.Fatalf("restored options = %+v, want workers=3 max_slices=7", seen)
	}
}

// TestDeleteDuringDiscover is the regression for session deletion with
// running jobs: the in-flight discovery is canceled and waited out, the
// delete returns 204, and the session's durable files are gone —
// recovery on the same directory finds nothing.
func TestDeleteDuringDiscover(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	s, ts := newDurableServer(t, st, Options{Registry: obs.New()})
	entered := make(chan struct{}, 1)
	s.discover = func(ctx context.Context, sess *midas.Session) (*midas.Result, error) {
		entered <- struct{}{}
		<-ctx.Done() // only cancellation ends this discovery
		return &midas.Result{}, ctx.Err()
	}

	do(t, "POST", ts.URL+"/api/sessions", strings.NewReader(`{"name":"del"}`), "application/json", nil)
	postFacts(t, ts.URL, "del", corpusFacts("alpha", 3))

	var j jobResp
	if code := do(t, "POST", ts.URL+"/api/sessions/del/discover", nil, "", &j); code != 202 {
		t.Fatalf("discover: HTTP %d", code)
	}
	<-entered // the job is inside the discovery body now

	start := time.Now()
	if code := do(t, "DELETE", ts.URL+"/api/sessions/del", nil, "", nil); code != 204 {
		t.Fatalf("delete: HTTP %d, want 204", code)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("delete blocked %v on a cancelable job", elapsed)
	}
	// The job was canceled, not lost: it finished partial and remains
	// pollable after its session is gone.
	if code := do(t, "GET", ts.URL+"/api/jobs/"+j.Job, nil, "", &j); code != 200 {
		t.Fatalf("poll after delete: HTTP %d", code)
	}
	if j.Status != StatePartial {
		t.Errorf("deleted session's job status = %q, want %q", j.Status, StatePartial)
	}
	if code := do(t, "GET", ts.URL+"/api/sessions/del", nil, "", nil); code != 404 {
		t.Fatalf("get after delete: HTTP %d, want 404", code)
	}
	if _, err := os.Stat(filepath.Join(dir, "sessions", "del")); !os.IsNotExist(err) {
		t.Error("deleted session's durable files still on disk")
	}

	// Recovery must not resurrect it.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	st2 := openTestStore(t, dir)
	s2, _ := newDurableServer(t, st2, Options{Registry: obs.New()})
	rec, err := s2.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Sessions) != 0 || len(rec.Dropped) != 0 || len(rec.Quarantined) != 0 {
		t.Fatalf("deleted session resurrected: %+v", rec)
	}
}

// TestSessionInfoFields pins the sessionInfo JSON contract the soak
// harness and CI recovery smoke depend on.
func TestSessionInfoFields(t *testing.T) {
	_, ts := newTestServer(t, Options{Registry: obs.New()})
	do(t, "POST", ts.URL+"/api/sessions", strings.NewReader(`{"name":"f"}`), "application/json", nil)
	var raw map[string]json.RawMessage
	if code := do(t, "GET", ts.URL+"/api/sessions/f", nil, "", &raw); code != 200 {
		t.Fatalf("get: HTTP %d", code)
	}
	for _, field := range []string{"session", "corpus_facts", "kb_facts", "fingerprint", "kb_epoch", "recovered"} {
		if _, ok := raw[field]; !ok {
			t.Errorf("sessionInfo missing %q: %v", field, raw)
		}
	}
	var fp string
	json.Unmarshal(raw["fingerprint"], &fp)
	if len(fp) != 16 {
		t.Errorf("fingerprint %q is not 16 hex digits", fp)
	}
}
