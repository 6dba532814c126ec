package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"midas/internal/obs"
)

// syncBuffer lets the test read log output that job goroutines are
// still allowed to append to.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) lines() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := strings.TrimSuffix(b.buf.String(), "\n")
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

// records decodes every JSON log line in the buffer.
func (b *syncBuffer) records(t *testing.T) []map[string]any {
	t.Helper()
	var recs []map[string]any
	for _, line := range b.lines() {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not valid JSON: %v\n%s", err, line)
		}
		recs = append(recs, rec)
	}
	return recs
}

// jsonLogger returns a debug-level JSON logger writing to w.
func jsonLogger(t *testing.T, w io.Writer) *slog.Logger {
	t.Helper()
	log, err := obs.NewLogger(w, "debug", "json")
	if err != nil {
		t.Fatal(err)
	}
	return log
}

// TestRequestTraceCorrelation runs a real discovery through the async
// job path and checks the acceptance bar: the request span is the root
// of one trace that contains the job span, the framework run span, and
// the hierarchy-round spans, each parented to the previous.
func TestRequestTraceCorrelation(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	do(t, "POST", ts.URL+"/api/sessions", strings.NewReader(`{"name":"tr"}`), "application/json", nil)
	postFacts(t, ts.URL, "tr", corpusFacts("alpha", 25))
	j := discoverWait(t, ts.URL, "tr")
	if j.Status != StateDone {
		t.Fatalf("job = %+v", j)
	}

	jb := s.job(j.Job)
	if jb == nil || jb.trace == 0 {
		t.Fatalf("job %s recorded no trace", j.Job)
	}
	recs := s.Tracer().TakeTrace(jb.trace)
	byID := make(map[int64]obs.SpanRecord, len(recs))
	for _, r := range recs {
		byID[r.ID] = r
	}
	var request, jobSpan, run obs.SpanRecord
	rounds := 0
	for _, r := range recs {
		switch {
		case r.Name == "serve/request":
			request = r
		case r.Name == "serve/job":
			jobSpan = r
		case r.Name == "framework/run":
			run = r
		case strings.HasPrefix(r.Name, "framework/depth"):
			rounds++
			// Every round must chain depth → run → job → request → root.
			if byID[r.Parent].Name != "framework/run" {
				t.Errorf("round %s parented to %q, want framework/run", r.Name, byID[r.Parent].Name)
			}
		}
	}
	if request.ID == 0 || jobSpan.ID == 0 || run.ID == 0 || rounds == 0 {
		t.Fatalf("trace missing layers: request=%d job=%d run=%d rounds=%d (%d spans)",
			request.ID, jobSpan.ID, run.ID, rounds, len(recs))
	}
	if request.Parent != 0 || request.Trace != jb.trace {
		t.Errorf("request span should be the trace root: %+v", request)
	}
	if jobSpan.Parent != request.ID || run.Parent != jobSpan.ID {
		t.Errorf("span ancestry broken: job.parent=%d (want %d), run.parent=%d (want %d)",
			jobSpan.Parent, request.ID, run.Parent, jobSpan.ID)
	}
	if jobSpan.Args["job"] != j.Job || jobSpan.Args["request"] == "" {
		t.Errorf("job span args = %v", jobSpan.Args)
	}
}

// TestAccessAndJobLogs: the middleware writes one structured access-log
// record per request, the discover record carries both the request and
// job IDs, and the job's lifecycle records carry the same pair — the
// grep chain an operator follows from access log to job log.
func TestAccessAndJobLogs(t *testing.T) {
	var buf syncBuffer
	log := jsonLogger(t, &buf)
	_, ts := newTestServer(t, Options{Logger: log})
	do(t, "POST", ts.URL+"/api/sessions", strings.NewReader(`{"name":"lg"}`), "application/json", nil)
	postFacts(t, ts.URL, "lg", corpusFacts("alpha", 10))
	j, code := discoverWaitCode(t, ts.URL, "lg")
	if j.Status != StateDone {
		t.Fatalf("job = %+v", j)
	}

	var access, started, finished map[string]any
	for _, rec := range buf.records(t) {
		switch {
		case rec["msg"] == "request" && rec["endpoint"] == "POST /api/sessions/{name}/discover":
			access = rec
		case rec["msg"] == "job started" && rec["job"] == j.Job:
			started = rec
		case rec["msg"] == "job finished" && rec["job"] == j.Job:
			finished = rec
		}
	}
	if access == nil || started == nil || finished == nil {
		t.Fatalf("missing records: access=%v started=%v finished=%v\nlog:\n%s",
			access != nil, started != nil, finished != nil, strings.Join(buf.lines(), "\n"))
	}
	reqID, _ := access["request"].(string)
	trace, _ := access["trace"].(string)
	if reqID == "" || trace == "" || access["job"] != j.Job || access["code"] != float64(code) {
		t.Errorf("access record = %v", access)
	}
	for what, rec := range map[string]map[string]any{"started": started, "finished": finished} {
		if rec["request"] != reqID || rec["session"] != "lg" {
			t.Errorf("job %s record does not share the request's IDs: %v", what, rec)
		}
		if span, _ := rec["span"].(string); span == "" || rec["trace"] != trace {
			t.Errorf("job %s record not correlated with the request's trace %q: %v", what, trace, rec)
		}
	}
	if finished["status"] != StateDone {
		t.Errorf("finished record = %v", finished)
	}
}

// TestJobProfileEndpoint: the capstone. A finished job's /profile folds
// its span tree into per-phase durations whose sum is bounded by the
// job's wall time, repeated GETs are stable, and the error paths (wrong
// session, cached job, running job) answer precisely.
func TestJobProfileEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	do(t, "POST", ts.URL+"/api/sessions", strings.NewReader(`{"name":"pf"}`), "application/json", nil)
	postFacts(t, ts.URL, "pf", corpusFacts("alpha", 25))
	postFacts(t, ts.URL, "pf", corpusFacts("beta", 25))
	j := discoverWait(t, ts.URL, "pf")
	if j.Status != StateDone {
		t.Fatalf("job = %+v", j)
	}

	var p jobProfile
	if code := do(t, "GET", ts.URL+"/api/sessions/pf/jobs/"+j.Job+"/profile", nil, "", &p); code != 200 {
		t.Fatalf("profile: HTTP %d", code)
	}
	if p.Job != j.Job || p.Session != "pf" || p.Trace == "" || p.Status != StateDone {
		t.Fatalf("profile header = %+v", p)
	}
	if p.WallSeconds <= 0 || len(p.Phases) == 0 || p.Spans < 3 {
		t.Fatalf("profile shape = %+v", p)
	}
	var sum float64
	for i, ph := range p.Phases {
		if !strings.HasPrefix(ph.Name, "framework/depth") || ph.Seconds < 0 || ph.OffsetSeconds < 0 {
			t.Errorf("phase %d = %+v", i, ph)
		}
		if ph.Sources <= 0 {
			t.Errorf("phase %d has no source count: %+v", i, ph)
		}
		if ph.BusySeconds["source"] <= 0 || ph.BusySeconds["detect"] <= 0 {
			t.Errorf("phase %d busy breakdown = %v", i, ph.BusySeconds)
		}
		sum += ph.Seconds
	}
	if sum > p.WallSeconds {
		t.Errorf("phase durations sum %v exceeds wall time %v", sum, p.WallSeconds)
	}
	if p.AccountedSeconds > p.WallSeconds || p.AccountedSeconds != sum {
		t.Errorf("accounted = %v, phases sum = %v, wall = %v", p.AccountedSeconds, sum, p.WallSeconds)
	}

	// Repeated GETs serve the cached fold, byte-stable.
	var p2 jobProfile
	if code := do(t, "GET", ts.URL+"/api/sessions/pf/jobs/"+j.Job+"/profile", nil, "", &p2); code != 200 {
		t.Fatalf("second profile: HTTP %d", code)
	}
	if p2.Spans != p.Spans || p2.AccountedSeconds != p.AccountedSeconds {
		t.Errorf("profile changed between GETs: %+v vs %+v", p, p2)
	}

	// Cache-hit jobs have no trace to fold.
	jc := discoverWait(t, ts.URL, "pf")
	if !jc.Cached {
		t.Fatalf("expected cache hit, got %+v", jc)
	}
	if code := do(t, "GET", ts.URL+"/api/sessions/pf/jobs/"+jc.Job+"/profile", nil, "", nil); code != 404 {
		t.Errorf("cached-job profile: HTTP %d, want 404", code)
	}

	// Wrong session → 400; unknown ids → 404.
	do(t, "POST", ts.URL+"/api/sessions", strings.NewReader(`{"name":"other"}`), "application/json", nil)
	if code := do(t, "GET", ts.URL+"/api/sessions/other/jobs/"+j.Job+"/profile", nil, "", nil); code != 400 {
		t.Errorf("cross-session profile: HTTP %d, want 400", code)
	}
	if code := do(t, "GET", ts.URL+"/api/sessions/pf/jobs/j999/profile", nil, "", nil); code != 404 {
		t.Errorf("unknown job profile: HTTP %d, want 404", code)
	}
}

// TestProfileOfRunningJob: 409 while the job runs, 200 after.
func TestProfileOfRunningJob(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	release := make(chan struct{})
	s.discover = blockingDiscover(release)
	do(t, "POST", ts.URL+"/api/sessions", strings.NewReader(`{"name":"run"}`), "application/json", nil)
	postFacts(t, ts.URL, "run", corpusFacts("alpha", 2))

	var j jobResp
	if code := do(t, "POST", ts.URL+"/api/sessions/run/discover", nil, "", &j); code != 202 {
		t.Fatalf("discover: HTTP %d", code)
	}
	if code := do(t, "GET", ts.URL+"/api/sessions/run/jobs/"+j.Job+"/profile", nil, "", nil); code != 409 {
		t.Errorf("running-job profile: HTTP %d, want 409", code)
	}
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if code := do(t, "GET", ts.URL+"/api/sessions/run/jobs/"+j.Job+"/profile", nil, "", nil); code == 200 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("profile never became available after release")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReadyzLifecycle: /readyz is 503 until the binary flips SetReady,
// 200 while serving, and 503 again the moment Drain begins — while
// /healthz stays 200 throughout (the liveness/readiness split).
func TestReadyzLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	var ready struct {
		Ready    bool `json:"ready"`
		Draining bool `json:"draining"`
	}
	if code := do(t, "GET", ts.URL+"/readyz", nil, "", &ready); code != http.StatusServiceUnavailable || ready.Ready {
		t.Fatalf("pre-SetReady readyz: HTTP %d %+v, want 503 not-ready", code, ready)
	}
	s.SetReady(true)
	if code := do(t, "GET", ts.URL+"/readyz", nil, "", &ready); code != 200 || !ready.Ready {
		t.Fatalf("readyz after SetReady: HTTP %d %+v", code, ready)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	s.Drain(drainCtx)
	if code := do(t, "GET", ts.URL+"/readyz", nil, "", &ready); code != http.StatusServiceUnavailable || ready.Ready || !ready.Draining {
		t.Fatalf("draining readyz: HTTP %d %+v, want 503 draining", code, ready)
	}
	var health struct {
		Status string `json:"status"`
	}
	if code := do(t, "GET", ts.URL+"/healthz", nil, "", &health); code != 200 || health.Status != "ok" {
		t.Fatalf("draining healthz: HTTP %d %+v, want 200 ok", code, health)
	}
}

// TestDrainKeepsObservability: an in-flight job that outlives the start
// of Drain still emits its lifecycle log records and completes its
// spans, /readyz flips 503 while /healthz stays 200 mid-drain, and the
// post-drain snapshot carries the runtime gauges a final -stats dump
// includes — the drain-interplay acceptance bundle.
func TestDrainKeepsObservability(t *testing.T) {
	reg := obs.New()
	var buf syncBuffer
	log := jsonLogger(t, &buf)
	s, ts := newTestServer(t, Options{Registry: reg, Logger: log})
	s.SetReady(true)
	rc := obs.NewRuntimeCollector(reg, time.Hour)
	release := make(chan struct{})
	s.discover = blockingDiscover(release)
	do(t, "POST", ts.URL+"/api/sessions", strings.NewReader(`{"name":"dr"}`), "application/json", nil)
	postFacts(t, ts.URL, "dr", corpusFacts("alpha", 2))

	var j jobResp
	if code := do(t, "POST", ts.URL+"/api/sessions/dr/discover", nil, "", &j); code != 202 {
		t.Fatalf("discover: HTTP %d", code)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	drained := make(chan int)
	go func() { drained <- s.Drain(drainCtx) }()

	// Mid-drain: readiness down, liveness up, job still running.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if code := do(t, "GET", ts.URL+"/readyz", nil, "", nil); code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never flipped to 503 during drain")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code := do(t, "GET", ts.URL+"/healthz", nil, "", nil); code != 200 {
		t.Fatalf("mid-drain healthz: HTTP %d", code)
	}

	// Release the job; it must finish cleanly inside the drain window.
	close(release)
	if inFlight := <-drained; inFlight != 1 {
		t.Errorf("Drain reported %d in-flight, want 1", inFlight)
	}

	// The job that straddled the drain still logged its lifecycle...
	var finished map[string]any
	for _, rec := range buf.records(t) {
		if rec["msg"] == "job finished" && rec["job"] == j.Job {
			finished = rec
		}
	}
	if finished == nil || finished["status"] != StateDone {
		t.Fatalf("no clean job-finished record for the drained job:\n%s", strings.Join(buf.lines(), "\n"))
	}
	// ...and completed its span tree (job span ended after drain began).
	jb := s.job(j.Job)
	if recs := s.Tracer().TakeTrace(jb.trace); len(recs) < 2 {
		t.Errorf("drained job trace has %d spans, want request+job at least", len(recs))
	}

	// The final snapshot (what midas-serve -stats writes after drain)
	// includes the runtime gauges.
	rc.Stop()
	snap := reg.Snapshot()
	for _, g := range []string{"runtime/heap_bytes", "runtime/goroutines"} {
		if snap.Gauges[g] <= 0 {
			t.Errorf("final snapshot gauge %q = %v, want > 0", g, snap.Gauges[g])
		}
	}
	if snap.Gauges["serve/draining"] != 1 {
		t.Errorf("serve/draining = %v", snap.Gauges["serve/draining"])
	}
}

// TestRequestLatencyHistogram: every wrapped endpoint feeds the
// serve/request_seconds HistogramVec, and the /metrics exposition
// carries nonzero midas_serve_request_seconds buckets.
func TestRequestLatencyHistogram(t *testing.T) {
	reg := obs.New()
	_, ts := newTestServer(t, Options{Registry: reg})
	do(t, "POST", ts.URL+"/api/sessions", strings.NewReader(`{"name":"h"}`), "application/json", nil)
	do(t, "GET", ts.URL+"/api/sessions", nil, "", nil)

	snap := reg.Snapshot()
	hv, ok := snap.HistogramVecs["serve/request_seconds"]
	if !ok {
		t.Fatal("snapshot missing serve/request_seconds histogram vec")
	}
	var total int64
	for _, series := range hv.Series {
		total += series.Count
	}
	if total < 2 {
		t.Fatalf("request_seconds observations = %d, want ≥ 2", total)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	if !strings.Contains(body, `midas_serve_request_seconds_bucket{endpoint="POST /api/sessions"`) {
		t.Errorf("/metrics missing labeled latency buckets:\n%.2000s", body)
	}
	if !strings.Contains(body, `midas_serve_request_seconds_count{endpoint="POST /api/sessions"} 1`) {
		t.Errorf("/metrics missing latency count sample:\n%.2000s", body)
	}
}

// TestMetricsFamiliesDeclaredOnce: after an API request, every metric
// family in the /metrics exposition has exactly one # TYPE line. A
// family declared twice (two registry metrics that sanitize to the same
// name) makes an OpenMetrics parser reject the whole scrape.
func TestMetricsFamiliesDeclaredOnce(t *testing.T) {
	_, ts := newTestServer(t, Options{Registry: obs.New()})
	do(t, "POST", ts.URL+"/api/sessions", strings.NewReader(`{"name":"m"}`), "application/json", nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || f[0] != "#" || f[1] != "TYPE" {
			continue
		}
		if seen[f[2]] {
			t.Errorf("family %s declared more than once", f[2])
		}
		seen[f[2]] = true
	}
	if !seen["midas_serve_request_seconds"] {
		t.Errorf("/metrics has no midas_serve_request_seconds family:\n%.2000s", body)
	}
}
