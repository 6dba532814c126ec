package obs_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"midas/internal/fact"
	"midas/internal/framework"
	"midas/internal/hierarchy"
	"midas/internal/obs"
	"midas/internal/slice"
)

func smallCorpus() *fact.Corpus {
	corpus := fact.NewCorpus(nil)
	for _, f := range []fact.Fact{
		{Subject: "saturn-v", Predicate: "category", Object: "rocket_family", Confidence: 0.9, URL: "http://space.example.org/us/saturn.htm"},
		{Subject: "saturn-v", Predicate: "sponsor", Object: "NASA", Confidence: 0.9, URL: "http://space.example.org/us/saturn.htm"},
		{Subject: "atlas", Predicate: "category", Object: "rocket_family", Confidence: 0.9, URL: "http://space.example.org/us/atlas.htm"},
		{Subject: "atlas", Predicate: "sponsor", Object: "NASA", Confidence: 0.9, URL: "http://space.example.org/us/atlas.htm"},
		{Subject: "ariane", Predicate: "category", Object: "rocket_family", Confidence: 0.9, URL: "http://space.example.org/eu/ariane.htm"},
		{Subject: "ariane", Predicate: "sponsor", Object: "ESA", Confidence: 0.9, URL: "http://space.example.org/eu/ariane.htm"},
	} {
		corpus.Add(f)
	}
	return corpus
}

// TestServeDuringRun scrapes /metrics and /debug/vars from the registry
// mux while a framework.Run is blocked mid-detection, proving the export
// surface works against a live, mid-flight registry (the production
// scrape scenario: a collector polls midas-bench -listen mid-run).
func TestServeDuringRun(t *testing.T) {
	reg := obs.New()
	srv := httptest.NewServer(obs.NewServeMux(reg))
	defer srv.Close()

	inDetect := make(chan struct{})
	release := make(chan struct{})
	var once bool
	opts := framework.Options{
		Workers: 1,
		Obs:     reg,
		Detect: func(table *fact.Table, seeds []hierarchy.Seed) []*slice.Slice {
			if !once {
				once = true
				close(inDetect)
				<-release
			}
			return nil
		},
	}

	done := make(chan *framework.Output, 1)
	go func() { done <- framework.Run(smallCorpus(), nil, opts) }()
	<-inDetect // the run is now in-flight, holding a detect phase open

	body := get(t, srv.URL+"/metrics", obs.OpenMetricsContentType)
	if !strings.Contains(body, "midas_") || !strings.HasSuffix(body, "# EOF\n") {
		t.Errorf("/metrics mid-run is not an OpenMetrics exposition:\n%s", body)
	}

	varsBody := get(t, srv.URL+"/debug/vars", "application/json; charset=utf-8")
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(varsBody), &vars); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v\n%s", err, varsBody)
	}
	if _, ok := vars["midas"]; !ok {
		t.Error("/debug/vars missing the midas registry snapshot key")
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(vars["midas"], &snap); err != nil {
		t.Fatalf("midas key is not a registry snapshot: %v", err)
	}

	close(release)
	if out := <-done; out == nil {
		t.Fatal("framework.Run returned nil")
	}

	// After the run quiesces, the scrape must carry the labeled
	// per-depth framework series.
	body = get(t, srv.URL+"/metrics", obs.OpenMetricsContentType)
	if !strings.Contains(body, `midas_framework_depth_seconds_count{depth="`) {
		t.Errorf("post-run /metrics missing labeled depth timer series:\n%s", body)
	}
	if !strings.Contains(body, "midas_framework_run_seconds_count 1") {
		t.Errorf("post-run /metrics missing framework/run summary:\n%s", body)
	}
}

func TestServeIndexAndPprof(t *testing.T) {
	srv := httptest.NewServer(obs.NewServeMux(obs.New()))
	defer srv.Close()
	if body := get(t, srv.URL+"/", ""); !strings.Contains(body, "/metrics") {
		t.Errorf("index should list endpoints, got:\n%s", body)
	}
	if body := get(t, srv.URL+"/debug/pprof/cmdline", ""); body == "" {
		t.Error("pprof cmdline endpoint empty")
	}
}

func TestListenAndServe(t *testing.T) {
	reg := obs.New()
	reg.Counter("probe").Inc()
	addr, err := obs.ListenAndServe("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	body := get(t, "http://"+addr.String()+"/metrics", obs.OpenMetricsContentType)
	if !strings.Contains(body, "midas_probe_total 1") {
		t.Errorf("scrape missing probe counter:\n%s", body)
	}
}

// TestTraceSpansPerPhase runs the pipeline with a tracer and checks the
// acceptance bar: at least one span per pipeline phase in the export.
// It runs under the paper's running-example cost model (f_p = 1), so
// the small corpus's sources clear the source-level profit bound and
// build a lattice; one extra single-fact page does not, and its detect
// span must say so.
func TestTraceSpansPerPhase(t *testing.T) {
	tr := obs.NewTracer()
	reg := obs.New()
	corpus := smallCorpus()
	corpus.Add(fact.Fact{Subject: "vega", Predicate: "category", Object: "rocket_family", Confidence: 0.9, URL: "http://space.example.org/eu/vega.htm"})
	framework.Run(corpus, nil, framework.Options{Workers: 2, Obs: reg, Trace: tr, Cost: slice.ExampleCostModel()})

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Dur  float64           `json:"dur"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	seen := map[string]int{}
	bounded := 0
	for _, ev := range doc.TraceEvents {
		seen[ev.Name]++
		if ev.Name == "detect" && ev.Args["bounded"] == "1" {
			bounded++
			if ev.Args["slices"] != "0" {
				t.Errorf("bounded detect span reports %s slices", ev.Args["slices"])
			}
		}
	}
	if bounded != 1 {
		t.Errorf("%d detect spans carry bounded=1, want 1 (the single-fact page)", bounded)
	}
	if n := reg.Counter("core/sources_bounded").Value(); n != 1 {
		t.Errorf("core/sources_bounded = %d, want 1", n)
	}
	for _, phase := range []string{"framework/run", "table/build", "detect", "consolidate", "hierarchy/build", "core/traverse"} {
		if seen[phase] == 0 {
			t.Errorf("no %q span in trace; got %v", phase, seen)
		}
	}
	depthSpans := 0
	for name, n := range seen {
		if strings.HasPrefix(name, "framework/depth") {
			depthSpans += n
		}
	}
	if depthSpans == 0 {
		t.Errorf("no per-round depth span in trace; got %v", seen)
	}
}

func get(t *testing.T, url, wantContentType string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if wantContentType != "" {
		if got := resp.Header.Get("Content-Type"); got != wantContentType {
			t.Errorf("GET %s Content-Type = %q, want %q", url, got, wantContentType)
		}
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestMountOnExistingMux: a binary with its own API mux mounts the
// telemetry endpoints next to its handlers (the midas-serve wiring);
// the caller keeps ownership of the root path.
func TestMountOnExistingMux(t *testing.T) {
	reg := obs.New()
	reg.Counter("mounted/hits").Inc()
	mux := http.NewServeMux()
	mux.HandleFunc("/api/ping", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "pong")
	})
	obs.Mount(mux, reg)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if code, body := get("/api/ping"); code != 200 || body != "pong" {
		t.Fatalf("/api/ping = %d %q", code, body)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "midas_mounted_hits_total 1") {
		t.Fatalf("/metrics = %d, missing mounted counter:\n%s", code, body)
	}
	if code, body := get("/debug/vars"); code != 200 || !strings.Contains(body, "\"midas\"") {
		t.Fatalf("/debug/vars = %d %q", code, body)
	}
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/ = %d", code)
	}
	// No index was mounted: the root stays the caller's (404 here).
	if code, _ := get("/"); code != 404 {
		t.Fatalf("/ = %d, want 404 from the caller's mux", code)
	}
}

// TestPprofBarePathRedirect: the bare /debug/pprof path (no trailing
// slash) must redirect into the slash-terminated subtree so the index's
// relative profile links resolve under /debug/pprof/ — including behind
// an API mux with no "/" fallback, like midas-serve's.
func TestPprofBarePathRedirect(t *testing.T) {
	apiMux := http.NewServeMux() // no "/" handler, like midas-serve
	obs.Mount(apiMux, obs.New())
	srv := httptest.NewServer(apiMux)
	defer srv.Close()

	noRedirect := &http.Client{
		CheckRedirect: func(req *http.Request, via []*http.Request) error {
			return http.ErrUseLastResponse
		},
	}
	resp, err := noRedirect.Get(srv.URL + "/debug/pprof")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMovedPermanently {
		t.Fatalf("GET /debug/pprof = %d, want %d", resp.StatusCode, http.StatusMovedPermanently)
	}
	if loc := resp.Header.Get("Location"); loc != "/debug/pprof/" {
		t.Fatalf("redirect location = %q, want /debug/pprof/", loc)
	}

	// A default client lands on the index, and the index's relative
	// links ("goroutine?debug=1") resolve to working profiles.
	body := get(t, srv.URL+"/debug/pprof", "")
	if !strings.Contains(body, "goroutine") {
		t.Errorf("index after redirect missing profile links:\n%s", body)
	}
	prof := get(t, srv.URL+"/debug/pprof/goroutine?debug=1", "")
	if !strings.Contains(prof, "goroutine profile:") {
		t.Errorf("goroutine profile link broken:\n%.200s", prof)
	}
}
