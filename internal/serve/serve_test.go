package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"midas"
	"midas/internal/obs"
	"midas/internal/testutil"
)

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	// Registered before the server's own cleanup, so the leak diff runs
	// after Close has torn everything down: every suite built on this
	// helper asserts its server leaves no goroutines behind — including
	// the drain tests, whose jobs straddle shutdown.
	testutil.CheckGoroutines(t)
	if opts.Registry == nil {
		opts.Registry = obs.New()
	}
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// do issues a request and decodes the JSON response into out (skipped
// when out is nil), returning the status code.
func do(t *testing.T, method, url string, body io.Reader, contentType string, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode
}

func corpusFacts(vertical string, n int) []apiFact {
	var facts []apiFact
	for i := 0; i < n; i++ {
		url := fmt.Sprintf("http://%s.example.com/wiki/e%d.htm", vertical, i)
		subj := fmt.Sprintf("%s entity %d", vertical, i)
		facts = append(facts,
			apiFact{Subject: subj, Predicate: "kind", Object: vertical, Confidence: 0.9, URL: url},
			apiFact{Subject: subj, Predicate: "id", Object: fmt.Sprintf("id-%s-%d", vertical, i), Confidence: 0.9, URL: url},
		)
	}
	return facts
}

func postFacts(t *testing.T, base, session string, facts []apiFact) {
	t.Helper()
	b, _ := json.Marshal(facts)
	var out struct {
		Added int `json:"added"`
	}
	if code := do(t, "POST", base+"/api/sessions/"+session+"/facts", bytes.NewReader(b), "application/json", &out); code != 200 {
		t.Fatalf("add facts: HTTP %d", code)
	}
	if out.Added != len(facts) {
		t.Fatalf("added %d facts, want %d", out.Added, len(facts))
	}
}

type jobResp struct {
	Job    string `json:"job"`
	Status string `json:"status"`
	Cached bool   `json:"cached"`
	Slices int    `json:"slices"`
	Error  string `json:"error"`
}

// discoverWait runs a discovery job and polls it to completion.
func discoverWait(t *testing.T, base, session string) jobResp {
	t.Helper()
	j, _ := discoverWaitCode(t, base, session)
	return j
}

// discoverWaitCode is discoverWait that also returns the discover
// POST's status: 202 while the job runs, 200 if it already finished.
func discoverWaitCode(t *testing.T, base, session string) (jobResp, int) {
	t.Helper()
	var j jobResp
	code := do(t, "POST", base+"/api/sessions/"+session+"/discover", nil, "", &j)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("discover: HTTP %d", code)
	}
	deadline := time.Now().Add(30 * time.Second)
	for j.Status == StateRunning {
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish", j.Job)
		}
		time.Sleep(10 * time.Millisecond)
		if code := do(t, "GET", base+"/api/jobs/"+j.Job, nil, "", &j); code != 200 {
			t.Fatalf("poll: HTTP %d", code)
		}
	}
	return j, code
}

// TestAPIRoundTrip drives the full curl flow of the CI smoke job:
// create session → add facts → discovery job → poll → result → absorb →
// progress, and checks the serve/* metric trail.
func TestAPIRoundTrip(t *testing.T) {
	reg := obs.New()
	s, ts := newTestServer(t, Options{Registry: reg})

	var created struct {
		Session string `json:"session"`
	}
	if code := do(t, "POST", ts.URL+"/api/sessions", strings.NewReader(`{"name":"loop"}`), "application/json", &created); code != 201 {
		t.Fatalf("create: HTTP %d", code)
	}
	if created.Session != "loop" {
		t.Fatalf("created %q", created.Session)
	}
	// Duplicate name → 409.
	if code := do(t, "POST", ts.URL+"/api/sessions", strings.NewReader(`{"name":"loop"}`), "application/json", nil); code != 409 {
		t.Fatalf("duplicate create: HTTP %d, want 409", code)
	}

	// Seed the KB over TSV, like a production bootstrap.
	if code := do(t, "POST", ts.URL+"/api/sessions/loop/kb",
		strings.NewReader("alpha entity 0\tkind\talpha\n"), "text/tab-separated-values", nil); code != 200 {
		t.Fatalf("kb load: HTTP %d", code)
	}
	postFacts(t, ts.URL, "loop", corpusFacts("alpha", 25))
	postFacts(t, ts.URL, "loop", corpusFacts("beta", 25))

	j := discoverWait(t, ts.URL, "loop")
	if j.Status != StateDone || j.Slices == 0 {
		t.Fatalf("job = %+v, want done with slices", j)
	}

	var res struct {
		Slices []apiSlice `json:"slices"`
	}
	if code := do(t, "GET", ts.URL+"/api/jobs/"+j.Job+"/result", nil, "", &res); code != 200 {
		t.Fatalf("result: HTTP %d", code)
	}
	if len(res.Slices) != j.Slices || res.Slices[0].Description == "" || len(res.Slices[0].Entities) == 0 {
		t.Fatalf("result slices malformed: %+v", res.Slices)
	}

	var absorbed struct{ Absorbed, Added int }
	body := fmt.Sprintf(`{"job":%q,"slices":[0]}`, j.Job)
	if code := do(t, "POST", ts.URL+"/api/sessions/loop/absorb", strings.NewReader(body), "application/json", &absorbed); code != 200 {
		t.Fatalf("absorb: HTTP %d", code)
	}
	if absorbed.Added == 0 {
		t.Fatal("absorb added nothing")
	}

	var prog struct {
		KBFacts  int     `json:"kb_facts"`
		Coverage float64 `json:"coverage"`
	}
	if code := do(t, "GET", ts.URL+"/api/sessions/loop/progress", nil, "", &prog); code != 200 {
		t.Fatalf("progress: HTTP %d", code)
	}
	if prog.KBFacts <= 1 || prog.Coverage <= 0 {
		t.Fatalf("progress = %+v", prog)
	}

	snap := s.Metrics().Snapshot()
	if snap.Gauges["serve/sessions"] != 1 {
		t.Errorf("serve/sessions = %v", snap.Gauges["serve/sessions"])
	}
	if got := reg.Counter("serve/jobs/finished").Value(); got != 1 {
		t.Errorf("serve/jobs/finished = %d", got)
	}
	found := false
	for _, series := range snap.CounterVecs["serve/requests"].Series {
		if series.Labels["endpoint"] == "POST /api/sessions/{name}/discover" && series.Labels["code"] == "202" {
			found = true
		}
	}
	if !found {
		t.Errorf("no request counter for the discover endpoint: %+v", snap.CounterVecs["serve/requests"])
	}
}

// TestDiscoverCache: a second identical discover is served from the
// fingerprint cache without a pipeline run; AddFacts and Absorb each
// invalidate it.
func TestDiscoverCache(t *testing.T) {
	reg := obs.New()
	_, ts := newTestServer(t, Options{Registry: reg})
	do(t, "POST", ts.URL+"/api/sessions", strings.NewReader(`{"name":"c"}`), "application/json", nil)
	postFacts(t, ts.URL, "c", corpusFacts("alpha", 25))

	j1 := discoverWait(t, ts.URL, "c")
	if j1.Cached {
		t.Fatal("first discover must miss")
	}
	j2 := discoverWait(t, ts.URL, "c")
	if !j2.Cached {
		t.Fatal("second identical discover must hit the cache")
	}
	if j2.Job == j1.Job {
		t.Fatal("cache hit must still mint a job")
	}
	if hits := reg.Counter("serve/cache/hit").Value(); hits != 1 {
		t.Fatalf("serve/cache/hit = %d, want 1", hits)
	}

	// AddFacts moves the fingerprint → miss.
	postFacts(t, ts.URL, "c", corpusFacts("beta", 25))
	j3 := discoverWait(t, ts.URL, "c")
	if j3.Cached {
		t.Fatal("discover after AddFacts must miss")
	}
	// Absorb grows the KB → miss again.
	body := fmt.Sprintf(`{"job":%q}`, j3.Job)
	var ab struct{ Added int }
	if code := do(t, "POST", ts.URL+"/api/sessions/c/absorb", strings.NewReader(body), "application/json", &ab); code != 200 || ab.Added == 0 {
		t.Fatalf("absorb all: HTTP %d, added %d", code, ab.Added)
	}
	j4 := discoverWait(t, ts.URL, "c")
	if j4.Cached {
		t.Fatal("discover after Absorb must miss")
	}
	if misses := reg.Counter("serve/cache/miss").Value(); misses != 3 {
		t.Fatalf("serve/cache/miss = %d, want 3", misses)
	}
}

// TestPartialCacheHit: a delta confined to one source misses the
// exact-fingerprint result cache but answers most sources from the
// session's incremental state, surfaced as a serve/cache/partial hit.
func TestPartialCacheHit(t *testing.T) {
	reg := obs.New()
	_, ts := newTestServer(t, Options{Registry: reg})
	do(t, "POST", ts.URL+"/api/sessions", strings.NewReader(`{"name":"p"}`), "application/json", nil)
	postFacts(t, ts.URL, "p", corpusFacts("alpha", 10))
	postFacts(t, ts.URL, "p", corpusFacts("beta", 10))
	if j := discoverWait(t, ts.URL, "p"); j.Status != StateDone {
		t.Fatalf("prime discover: %+v", j)
	}
	if v := reg.Counter("serve/cache/partial").Value(); v != 0 {
		t.Fatalf("serve/cache/partial = %d before any delta, want 0", v)
	}

	// One fact on one existing page: the exact cache misses, but only
	// that page's branch is re-detected.
	postFacts(t, ts.URL, "p", []apiFact{{
		Subject: "alpha entity 0", Predicate: "kind", Object: "alpha prime",
		Confidence: 0.9, URL: "http://alpha.example.com/wiki/e0.htm",
	}})
	j := discoverWait(t, ts.URL, "p")
	if j.Status != StateDone || j.Cached {
		t.Fatalf("delta discover: %+v", j)
	}
	if v := reg.Counter("serve/cache/partial").Value(); v != 1 {
		t.Fatalf("serve/cache/partial = %d after single-source delta, want 1", v)
	}

	// An unchanged re-discover is an exact hit, not another partial one.
	if j := discoverWait(t, ts.URL, "p"); !j.Cached {
		t.Fatalf("unchanged re-discover not cached: %+v", j)
	}
	if v := reg.Counter("serve/cache/partial").Value(); v != 1 {
		t.Fatalf("serve/cache/partial = %d after exact hit, want 1", v)
	}
}

// blockingDiscover substitutes the job body: it parks until release is
// closed (or the context ends), so tests control job lifetime exactly.
func blockingDiscover(release <-chan struct{}) func(context.Context, *midas.Session) (*midas.Result, error) {
	return func(ctx context.Context, sess *midas.Session) (*midas.Result, error) {
		select {
		case <-release:
			return &midas.Result{}, nil
		case <-ctx.Done():
			return &midas.Result{}, ctx.Err()
		}
	}
}

// TestShedUnderSaturation: with MaxInFlight=1 and a discovery parked in
// flight, the next discover request is shed with 429 and the shed
// counter moves; after release, capacity returns.
func TestShedUnderSaturation(t *testing.T) {
	reg := obs.New()
	s, ts := newTestServer(t, Options{MaxInFlight: 1, Registry: reg})
	release := make(chan struct{})
	s.discover = blockingDiscover(release)
	do(t, "POST", ts.URL+"/api/sessions", strings.NewReader(`{"name":"b"}`), "application/json", nil)
	postFacts(t, ts.URL, "b", corpusFacts("alpha", 2))

	var j jobResp
	if code := do(t, "POST", ts.URL+"/api/sessions/b/discover", nil, "", &j); code != 202 {
		t.Fatalf("first discover: HTTP %d", code)
	}
	var errResp struct {
		Error string `json:"error"`
	}
	if code := do(t, "POST", ts.URL+"/api/sessions/b/discover", nil, "", &errResp); code != http.StatusTooManyRequests {
		t.Fatalf("saturated discover: HTTP %d, want 429", code)
	}
	if errResp.Error == "" {
		t.Error("429 response carries no error message")
	}
	if shed := reg.Counter("serve/shed").Value(); shed != 1 {
		t.Errorf("serve/shed = %d, want 1", shed)
	}
	close(release)
	for i := 0; ; i++ {
		if code := do(t, "POST", ts.URL+"/api/sessions/b/discover", nil, "", &j); code != http.StatusTooManyRequests {
			if code != 200 && code != 202 {
				t.Fatalf("post-release discover: HTTP %d", code)
			}
			break
		}
		if i > 100 {
			t.Fatal("slot never came back after release")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSyncDiscoverDeadlinePartial: a synchronous discover whose
// deadline expires returns immediately with partial status instead of
// hanging — and the partial result is not cached.
func TestSyncDiscoverDeadlinePartial(t *testing.T) {
	reg := obs.New()
	s, ts := newTestServer(t, Options{Registry: reg})
	s.discover = blockingDiscover(nil) // only the context can end it
	do(t, "POST", ts.URL+"/api/sessions", strings.NewReader(`{"name":"d"}`), "application/json", nil)
	postFacts(t, ts.URL, "d", corpusFacts("alpha", 2))

	start := time.Now()
	var j jobResp
	if code := do(t, "POST", ts.URL+"/api/sessions/d/discover?wait=true&timeout=50ms", nil, "", &j); code != 200 {
		t.Fatalf("sync discover: HTTP %d", code)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline-bounded discover took %v", elapsed)
	}
	if j.Status != StatePartial {
		t.Fatalf("status = %q, want %q", j.Status, StatePartial)
	}
	if code := do(t, "GET", ts.URL+"/api/jobs/"+j.Job+"/result", nil, "", nil); code != 200 {
		t.Fatalf("partial result fetch: HTTP %d", code)
	}
	if hits := reg.Counter("serve/cache/hit").Value(); hits != 0 {
		t.Fatalf("partial results must not be cached (hits=%d)", hits)
	}
}

// TestDrainWithInFlightJob: draining refuses new discoveries with 503,
// waits for the running job, and cancels it when the drain context
// expires — the job ends partial, never lost.
func TestDrainWithInFlightJob(t *testing.T) {
	reg := obs.New()
	s, ts := newTestServer(t, Options{Registry: reg})
	s.discover = blockingDiscover(nil)
	do(t, "POST", ts.URL+"/api/sessions", strings.NewReader(`{"name":"g"}`), "application/json", nil)
	postFacts(t, ts.URL, "g", corpusFacts("alpha", 2))

	var j jobResp
	if code := do(t, "POST", ts.URL+"/api/sessions/g/discover", nil, "", &j); code != 202 {
		t.Fatalf("discover: HTTP %d", code)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	drained := make(chan int)
	go func() { drained <- s.Drain(drainCtx) }()
	// Let Drain take its in-flight count first: a discover accepted
	// before the drain begins is a second job legitimately in flight.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Gauge("serve/draining").Value() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("Drain never started")
		}
		time.Sleep(time.Millisecond)
	}

	// Draining servers refuse new work.
	for {
		code := do(t, "POST", ts.URL+"/api/sessions/g/discover", nil, "", nil)
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("draining discover: HTTP %d, want 503", code)
		}
		time.Sleep(5 * time.Millisecond)
	}

	select {
	case inFlight := <-drained:
		if inFlight != 1 {
			t.Errorf("Drain reported %d in-flight jobs, want 1", inFlight)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Drain hung on a canceled in-flight job")
	}
	if code := do(t, "GET", ts.URL+"/api/jobs/"+j.Job, nil, "", &j); code != 200 {
		t.Fatalf("poll after drain: HTTP %d", code)
	}
	if j.Status != StatePartial {
		t.Errorf("drained job status = %q, want %q", j.Status, StatePartial)
	}
	if reg.Gauge("serve/draining").Value() != 1 {
		t.Error("serve/draining gauge not set")
	}
}

// TestConcurrentClients: ≥8 httptest clients hammer one session with
// the full API mix; under -race this proves the serving path and the
// RWMutex-guarded Session end to end. Weak assertions by design — the
// interleaving is the test.
func TestConcurrentClients(t *testing.T) {
	_, ts := newTestServer(t, Options{Registry: obs.New()})
	do(t, "POST", ts.URL+"/api/sessions", strings.NewReader(`{"name":"conc"}`), "application/json", nil)
	postFacts(t, ts.URL, "conc", corpusFacts("alpha", 20))

	const clients = 10
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				switch c % 5 {
				case 0:
					var j jobResp
					code := do(t, "POST", ts.URL+"/api/sessions/conc/discover", nil, "", &j)
					if code == http.StatusTooManyRequests {
						continue
					}
					do(t, "GET", ts.URL+"/api/jobs/"+j.Job, nil, "", &j)
					if j.Status == StateDone && j.Slices > 0 {
						body := fmt.Sprintf(`{"job":%q}`, j.Job)
						do(t, "POST", ts.URL+"/api/sessions/conc/absorb", strings.NewReader(body), "application/json", nil)
					}
				case 1:
					b, _ := json.Marshal(corpusFacts(fmt.Sprintf("v%d-%d", c, i), 3))
					do(t, "POST", ts.URL+"/api/sessions/conc/facts", bytes.NewReader(b), "application/json", nil)
				case 2:
					do(t, "POST", ts.URL+"/api/sessions/conc/discover?wait=true&timeout=2s", nil, "", nil)
				case 3:
					do(t, "GET", ts.URL+"/api/sessions/conc/progress", nil, "", nil)
					do(t, "GET", ts.URL+"/api/sessions/conc", nil, "", nil)
				default:
					do(t, "GET", ts.URL+"/api/jobs", nil, "", nil)
					do(t, "GET", ts.URL+"/metrics", nil, "", nil)
				}
			}
		}(c)
	}
	wg.Wait()
	var health struct {
		Status string `json:"status"`
	}
	if code := do(t, "GET", ts.URL+"/healthz", nil, "", &health); code != 200 || health.Status != "ok" {
		t.Fatalf("healthz after stress: HTTP %d %+v", code, health)
	}
}

// TestFactsTSVAndKBFormats: the TSV ingestion paths used by the CI
// smoke job (midas-datagen's facts.tsv layout, KB TSV), plus format
// errors.
func TestFactsTSVAndKBFormats(t *testing.T) {
	_, ts := newTestServer(t, Options{Registry: obs.New()})
	do(t, "POST", ts.URL+"/api/sessions", strings.NewReader(`{"name":"tsv"}`), "application/json", nil)

	tsv := "a1\tkind\talpha\t0.9\thttp://x.example.com/a/1.htm\n" +
		"a2\tkind\talpha\t0.9\thttp://x.example.com/a/2.htm\n" +
		"a3\tkind\talpha\n" // 3-column form: confidence and URL optional
	var added struct{ Added int }
	if code := do(t, "POST", ts.URL+"/api/sessions/tsv/facts", strings.NewReader(tsv), "text/tab-separated-values", &added); code != 200 {
		t.Fatalf("facts tsv: HTTP %d", code)
	}
	if added.Added != 3 {
		t.Fatalf("added = %d, want 3", added.Added)
	}
	if code := do(t, "POST", ts.URL+"/api/sessions/tsv/facts", strings.NewReader("one-column\n"), "", nil); code != 400 {
		t.Fatalf("malformed tsv: HTTP %d, want 400", code)
	}
	if code := do(t, "POST", ts.URL+"/api/sessions/tsv/kb?format=nope", strings.NewReader(""), "", nil); code != 400 {
		t.Fatalf("bad kb format: HTTP %d, want 400", code)
	}
	var kb struct{ Added int }
	if code := do(t, "POST", ts.URL+"/api/sessions/tsv/kb", strings.NewReader("a1\tkind\talpha\n"), "", &kb); code != 200 || kb.Added != 1 {
		t.Fatalf("kb tsv: HTTP %d added %d", code, kb.Added)
	}

	// Unknown session and job → 404.
	if code := do(t, "GET", ts.URL+"/api/sessions/ghost", nil, "", nil); code != 404 {
		t.Fatalf("ghost session: HTTP %d", code)
	}
	if code := do(t, "GET", ts.URL+"/api/jobs/j999", nil, "", nil); code != 404 {
		t.Fatalf("ghost job: HTTP %d", code)
	}
}

// TestKBLoadCountedOnce: the staging parse that validates a KB body
// before it is logged must not count as a load — one served load of N
// triples raises kb/load_triples by exactly N.
func TestKBLoadCountedOnce(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	do(t, "POST", ts.URL+"/api/sessions", strings.NewReader(`{"name":"kbc"}`), "application/json", nil)
	body := "a1\tkind\talpha\na2\tkind\talpha\na3\tkind\tbeta\n"
	loaded := obs.Default().Counter("kb/load_triples")
	before := loaded.Value()
	var kb struct{ Added int }
	if code := do(t, "POST", ts.URL+"/api/sessions/kbc/kb", strings.NewReader(body), "", &kb); code != 200 || kb.Added != 3 {
		t.Fatalf("kb load: HTTP %d added %d, want 200 added 3", code, kb.Added)
	}
	if got := loaded.Value() - before; got != 3 {
		t.Errorf("kb/load_triples rose by %d for one load of 3 triples, want 3", got)
	}
}

// TestRequestBodyBound: every body reader stops at Options.MaxBodyBytes
// and the request is answered 413 without touching the session, while
// bodies within the bound are served as usual.
func TestRequestBodyBound(t *testing.T) {
	const limit = 1024
	_, ts := newTestServer(t, Options{MaxBodyBytes: limit})
	if code := do(t, "POST", ts.URL+"/api/sessions", strings.NewReader(`{"name":"big"}`), "application/json", nil); code != 201 {
		t.Fatalf("create within bound: HTTP %d, want 201", code)
	}
	postFacts(t, ts.URL, "big", corpusFacts("small", 2))

	bigJSON, _ := json.Marshal(corpusFacts("large", 20))
	bigTSV := strings.Repeat("subject\tkind\tobject\t0.9\thttp://x.example.com/a.htm\n", 40)
	padded := `{"name":"` + strings.Repeat("x", limit) + `"}`
	cases := []struct {
		name, path, ctype, body string
	}{
		{"facts json", "/api/sessions/big/facts", "application/json", string(bigJSON)},
		{"facts tsv", "/api/sessions/big/facts", "text/tab-separated-values", bigTSV},
		{"kb", "/api/sessions/big/kb", "", bigTSV},
		{"create session", "/api/sessions", "application/json", padded},
		{"absorb", "/api/sessions/big/absorb", "application/json", `{"job":"` + strings.Repeat("j", limit) + `"}`},
	}
	for _, tc := range cases {
		if len(tc.body) <= limit {
			t.Fatalf("%s: test body of %d bytes is within the %d-byte bound", tc.name, len(tc.body), limit)
		}
		if code := do(t, "POST", ts.URL+tc.path, strings.NewReader(tc.body), tc.ctype, nil); code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: HTTP %d for a %d-byte body, want 413", tc.name, code, len(tc.body))
		}
	}
	var info struct {
		CorpusFacts int `json:"corpus_facts"`
		KBFacts     int `json:"kb_facts"`
	}
	do(t, "GET", ts.URL+"/api/sessions/big", nil, "", &info)
	if info.CorpusFacts != 4 || info.KBFacts != 0 {
		t.Errorf("after rejected bodies: %d corpus facts, %d KB facts; want 4 and 0", info.CorpusFacts, info.KBFacts)
	}
}
