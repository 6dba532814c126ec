package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"midas"
	"midas/internal/faultinject"
	"midas/internal/obs"
	"midas/internal/serve"
	"midas/internal/store"
	"midas/internal/testutil"
)

// config is one soak invocation's knobs, shared by every seed it runs.
type config struct {
	ops      int
	clients  int
	maxFacts int
	breakIt  bool
	restart  bool
	verbose  bool
	pool     []poolRow
}

// report is the per-seed outcome — serialized verbatim as the failure
// artifact, so a violation ships with everything needed to replay it:
// the seed, the fault plan it drew, what was injected, the full op log,
// and the violations themselves.
type report struct {
	Seed        int64            `json:"seed"`
	Plan        faultinject.Plan `json:"plan"`
	FaultCounts map[string]int64 `json:"fault_counts"`
	Requests    int64            `json:"requests"`
	Disconnects int64            `json:"disconnects"`
	Shed        int64            `json:"shed"`
	Restarts    int64            `json:"restarts"`
	Ops         []opRecord       `json:"ops"`
	Violations  []violation      `json:"violations"`
}

type opRecord struct {
	Worker  int    `json:"worker"`
	Seq     int    `json:"seq"`
	Op      string `json:"op"`
	Session string `json:"session,omitempty"`
	Code    int    `json:"code,omitempty"`
	Note    string `json:"note,omitempty"`
}

type violation struct {
	Worker int    `json:"worker"`
	Seq    int    `json:"seq"`
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
}

// seedHarness runs one seed: an in-process serve.Server with every
// fault seam wired to one seeded Injector, hammered by cfg.clients
// deterministic workers, then checked against the end-of-run
// invariants (drain behavior, metrics consistency, goroutine leaks).
//
// In -restart mode the server is backed by a durable store and is
// hard-stopped mid-workload: the store freezes as if SIGKILLed, client
// connections are severed, and a fresh server recovers from the same
// data directory and takes over the harness URL. Workers that had a
// request in flight across the window stand their oracles down for
// that session; every other session's oracle keeps asserting — so a
// recovery that loses or mangles any acknowledged mutation fails the
// mirror checks exactly like a serving bug would.
type seedHarness struct {
	cfg  config
	seed int64
	inj  *faultinject.Injector
	reg  *obs.Registry
	hc   *http.Client

	smu     sync.RWMutex // guards srv/ts/st across restarts
	srv     *serve.Server
	ts      *httptest.Server
	st      *store.Store
	dataDir string

	gen        atomic.Int64 // server generation; bumped per restart
	restarting atomic.Bool  // true while the old server is down
	restarts   atomic.Int64

	responses atomic.Int64 // HTTP responses the clients observed
	disconns  atomic.Int64 // requests abandoned client-side
	shed429   atomic.Int64 // 429s the clients observed

	mu    sync.Mutex
	ops   []opRecord
	viols []violation
}

func (h *seedHarness) server() *serve.Server {
	h.smu.RLock()
	defer h.smu.RUnlock()
	return h.srv
}

func (h *seedHarness) base() string {
	h.smu.RLock()
	defer h.smu.RUnlock()
	return h.ts.URL
}

// interrupted reports whether a restart window overlaps an op that
// started at generation g — the op's failure is then expected, not a
// violation.
func (h *seedHarness) interrupted(g int64) bool {
	return h.restarting.Load() || h.gen.Load() != g
}

// startServer builds a server generation: fault seams wired to the
// seed's injector (RestoreOptions re-plants the injected detector on
// recovered sessions — a func cannot be persisted), recovery run when
// a store is configured, and the result published for the workers.
func (h *seedHarness) startServer() *store.Recovery {
	plant := func(o *midas.Options) *midas.Options {
		if o == nil {
			o = &midas.Options{}
		}
		o.Detect = h.inj.Detector()
		return o
	}
	opts := serve.Options{
		Registry:       h.reg,
		MaxInFlight:    h.cfg.clients/2 + 1, // tight enough that shedding happens
		RequestTimeout: 30 * time.Second,
		IDs:            serve.NewIDSource(h.seed*1000 + h.gen.Load()),
		Now:            h.inj.Clock(),
		Store:          h.st,
		RestoreOptions: plant,
		NewSession: func(o *midas.Options) *midas.Session {
			return midas.NewSession(nil, plant(o))
		},
		WrapDiscover: func(next serve.Discover) serve.Discover {
			d := h.inj.Discover(faultinject.DiscoverFunc(next))
			if h.cfg.breakIt {
				d = h.inj.CorruptResults(d)
			}
			return serve.Discover(d)
		},
	}
	srv := serve.New(opts)
	var rec *store.Recovery
	if h.st != nil {
		var err error
		rec, err = srv.Recover(context.Background())
		if err != nil {
			h.violate(-1, -1, "recover", fmt.Sprintf("generation %d: %v", h.gen.Load(), err))
		}
	}
	srv.SetReady(true)
	ts := httptest.NewServer(srv.Handler())
	if rec != nil {
		// Verify against the unpublished URL: once h.ts is swapped the
		// workers resume mutating, and the stamped fingerprints go stale.
		h.verifyRecovery(rec, ts.URL)
	}
	h.smu.Lock()
	h.srv, h.ts = srv, ts
	h.smu.Unlock()
	return rec
}

// verifyRecovery asserts what a recovery must deliver: zero
// quarantines, and every recovered session served back marked
// recovered with the exact fingerprint the recovery stamped.
func (h *seedHarness) verifyRecovery(rec *store.Recovery, base string) {
	for _, q := range rec.Quarantined {
		h.violate(-1, -1, "restart-quarantine", fmt.Sprintf("session %s: %v", q.Name, q.Err))
	}
	for _, rs := range rec.Sessions {
		var info struct {
			Fingerprint string `json:"fingerprint"`
			Recovered   bool   `json:"recovered"`
		}
		code, err := h.doJSONAt(base, h.hc, "GET", "/api/sessions/"+rs.Name, nil, "", &info)
		if err != nil || code != http.StatusOK {
			h.violate(-1, -1, "restart-recovered", fmt.Sprintf("session %s unreachable after recovery: HTTP %d (%v)", rs.Name, code, err))
			continue
		}
		if !info.Recovered {
			h.violate(-1, -1, "restart-recovered", fmt.Sprintf("session %s not marked recovered", rs.Name))
		}
		if want := fmt.Sprintf("%016x", rs.Fingerprint); info.Fingerprint != want {
			h.violate(-1, -1, "restart-fingerprint",
				fmt.Sprintf("session %s serves fingerprint %s, recovery stamped %s", rs.Name, info.Fingerprint, want))
		}
	}
}

// restart is the in-process SIGKILL + reboot: freeze the store (no
// final fsync, in-flight acks fail), sever every client connection,
// tear the old server down, then recover a new generation from the
// same directory and verify what came back — zero quarantines, every
// recovered session marked recovered and answering with the exact
// fingerprint the recovery stamped.
func (h *seedHarness) restart() {
	h.restarting.Store(true)
	h.smu.RLock()
	oldSrv, oldTs, oldSt := h.srv, h.ts, h.st
	h.smu.RUnlock()

	oldSt.Kill()
	oldTs.CloseClientConnections()
	oldSrv.Close() // cancels async job contexts
	oldTs.Close()  // waits out the severed handlers

	st, err := store.Open(store.Options{Dir: h.dataDir, Fsync: store.PolicyBatch, Registry: h.reg})
	if err != nil {
		h.violate(-1, -1, "restart-open", err.Error())
		h.restarting.Store(false)
		return
	}
	h.smu.Lock()
	h.st = st
	h.smu.Unlock()
	rec := h.startServer()
	h.gen.Add(1)
	h.restarting.Store(false)
	h.restarts.Add(1)
	n := 0
	if rec != nil {
		n = len(rec.Sessions)
	}
	h.record(-1, -1, "restart", "", 0, fmt.Sprintf("gen %d: recovered %d session(s)", h.gen.Load(), n))
}

func runSeed(cfg config, seed int64) *report {
	if cfg.clients <= 0 {
		cfg.clients = 4
	}
	before := testutil.Goroutines()
	h := &seedHarness{
		cfg: cfg, seed: seed,
		inj: faultinject.New(seed, faultinject.DefaultPlan()),
		reg: obs.New(),
		hc:  &http.Client{Timeout: 60 * time.Second},
	}
	if cfg.restart {
		dir, err := os.MkdirTemp("", "midas-soak-*")
		if err != nil {
			h.violate(-1, -1, "setup", fmt.Sprintf("data dir: %v", err))
			return h.report()
		}
		defer os.RemoveAll(dir)
		h.dataDir = dir
		st, err := store.Open(store.Options{Dir: dir, Fsync: store.PolicyBatch, Registry: h.reg})
		if err != nil {
			h.violate(-1, -1, "setup", fmt.Sprintf("opening store: %v", err))
			return h.report()
		}
		h.st = st
	}
	h.startServer()

	// A sentinel session no worker touches: never discovered before the
	// drain, so it holds no memoized result and checkDrain's probe must
	// reach the drain gate rather than a cache hit or a 404.
	if code, err := h.doJSON(h.hc, "POST", "/api/sessions",
		strings.NewReader(`{"name":"drain-probe"}`), "application/json", nil); err != nil || code != http.StatusCreated {
		h.violate(-1, -1, "setup", fmt.Sprintf("creating drain-probe session: HTTP %d (%v)", code, err))
	}

	// The restarter waits for roughly half the workload to land, then
	// hard-stops and reboots the server under the workers.
	restartDone := make(chan struct{})
	if cfg.restart {
		go func() {
			defer close(restartDone)
			target := int64(cfg.ops) / 2
			deadline := time.Now().Add(60 * time.Second)
			for h.responses.Load() < target && time.Now().Before(deadline) {
				time.Sleep(2 * time.Millisecond)
			}
			h.restart()
		}()
	} else {
		close(restartDone)
	}

	perWorker := cfg.ops / cfg.clients
	if perWorker <= 0 {
		perWorker = 1
	}
	var wg sync.WaitGroup
	for i := 0; i < cfg.clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w := newWorker(h, id)
			for seq := 0; seq < perWorker; seq++ {
				w.step(seq)
			}
			w.finalChecks()
		}(i)
	}
	wg.Wait()
	<-restartDone

	h.checkDrain()
	h.checkMetrics()

	h.smu.RLock()
	ts, srv, st := h.ts, h.srv, h.st
	h.smu.RUnlock()
	ts.Close()
	srv.Close()
	if st != nil {
		if err := st.Close(); err != nil {
			h.violate(-1, -1, "store-close", err.Error())
		}
	}
	h.hc.CloseIdleConnections()
	if leaks := testutil.Leaked(before, 5*time.Second); len(leaks) > 0 {
		h.violate(-1, -1, "goroutine-leak", fmt.Sprintf("%v", leaks))
	}
	return h.report()
}

func (h *seedHarness) report() *report {
	h.mu.Lock()
	defer h.mu.Unlock()
	return &report{
		Seed:        h.seed,
		Plan:        h.inj.Plan(),
		FaultCounts: h.inj.Counts(),
		Requests:    h.responses.Load(),
		Disconnects: h.disconns.Load(),
		Shed:        h.shed429.Load(),
		Restarts:    h.restarts.Load(),
		Ops:         h.ops,
		Violations:  h.viols,
	}
}

func (h *seedHarness) record(worker, seq int, op, session string, code int, note string) {
	if h.cfg.verbose {
		fmt.Printf("seed %d w%d #%d %-14s %-12s %d %s\n", h.seed, worker, seq, op, session, code, note)
	}
	h.mu.Lock()
	h.ops = append(h.ops, opRecord{Worker: worker, Seq: seq, Op: op, Session: session, Code: code, Note: note})
	h.mu.Unlock()
}

func (h *seedHarness) violate(worker, seq int, kind, detail string) {
	h.mu.Lock()
	h.viols = append(h.viols, violation{Worker: worker, Seq: seq, Kind: kind, Detail: detail})
	h.mu.Unlock()
}

// doJSON issues one request against the harness server, decoding the
// JSON response into out when non-nil. A transport-level failure
// returns code 0 with the error; response bodies that fail to decode
// are reported as a harness violation (the API must always answer
// well-formed JSON).
func (h *seedHarness) doJSON(client *http.Client, method, path string, body io.Reader, contentType string, out any) (int, error) {
	return h.doJSONAt(h.base(), client, method, path, body, contentType, out)
}

// doJSONAt is doJSON against an explicit base URL — how verifyRecovery
// reaches a server generation before it is published to the workers.
func (h *seedHarness) doJSONAt(base string, client *http.Client, method, path string, body io.Reader, contentType string, out any) (int, error) {
	req, err := http.NewRequest(method, base+path, body)
	if err != nil {
		return 0, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := client.Do(req)
	if err != nil {
		h.disconns.Add(1)
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		h.disconns.Add(1)
		return 0, err
	}
	h.responses.Add(1)
	if resp.StatusCode == http.StatusTooManyRequests {
		h.shed429.Add(1)
	}
	if out != nil && len(raw) > 0 {
		if err := json.Unmarshal(raw, out); err != nil {
			h.violate(-1, -1, "malformed-response", fmt.Sprintf("%s %s: %v in %.200q", method, path, err, raw))
		}
	}
	return resp.StatusCode, nil
}

// checkDrain verifies shutdown semantics: Drain leaves no job running,
// and a draining server refuses discovery with 503 while /healthz stays
// alive.
func (h *seedHarness) checkDrain() {
	ctx, cancel := contextWithTimeout(10 * time.Second)
	defer cancel()
	h.server().Drain(ctx)

	var errResp struct {
		Error string `json:"error"`
	}
	code, err := h.doJSON(h.hc, "POST", "/api/sessions/drain-probe/discover", nil, "", &errResp)
	if err == nil && code != http.StatusServiceUnavailable {
		h.violate(-1, -1, "drain-503", fmt.Sprintf("discover during drain: HTTP %d, want 503", code))
	}
	if code, err := h.doJSON(h.hc, "GET", "/healthz", nil, "", nil); err != nil || code != http.StatusOK {
		h.violate(-1, -1, "drain-healthz", fmt.Sprintf("healthz during drain: HTTP %d (%v)", code, err))
	}

	var jobs struct {
		Jobs []struct {
			Job    string `json:"job"`
			Status string `json:"status"`
			Cached bool   `json:"cached"`
		} `json:"jobs"`
	}
	if code, err := h.doJSON(h.hc, "GET", "/api/jobs", nil, "", &jobs); err != nil || code != http.StatusOK {
		h.violate(-1, -1, "drain-jobs", fmt.Sprintf("job list after drain: HTTP %d (%v)", code, err))
		return
	}
	ran, cached := int64(0), int64(0)
	for _, j := range jobs.Jobs {
		if j.Status == serve.StateRunning {
			h.violate(-1, -1, "drain-left-running", fmt.Sprintf("job %s still running after Drain", j.Job))
		}
		if j.Cached {
			cached++
		} else {
			ran++
		}
	}
	// The authoritative job list must reconcile exactly with the
	// serve/* counters: every non-cached job was executed and finished,
	// every cached one hit the result cache. After a restart the shared
	// counters span every generation while /api/jobs only lists the
	// current one, so the exact reconciliation only holds restart-free.
	if h.restarts.Load() == 0 {
		h.reconcile("jobs/finished", ran, func() int64 { return h.reg.Counter("serve/jobs/finished").Value() })
		h.reconcile("cache/hit", cached, func() int64 { return h.reg.Counter("serve/cache/hit").Value() })
	}
}

// reconcile retries an exact counter comparison briefly: a handler that
// already answered its client may still be a few instructions away from
// bumping its counters.
func (h *seedHarness) reconcile(name string, want int64, got func() int64) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		if got() == want || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if g := got(); g != want {
		h.violate(-1, -1, "metrics-"+name, fmt.Sprintf("serve/%s = %d, observed %d", name, g, want))
	}
}

// checkMetrics bounds the request counters against what the clients
// observed: the server counts every handler completion, so its total
// must cover every client-observed response and exceed it by at most
// the number of abandoned requests.
func (h *seedHarness) checkMetrics() {
	observed := h.responses.Load()
	dropped := h.disconns.Load()
	total := func() int64 {
		var n int64
		for _, s := range h.reg.Snapshot().CounterVecs["serve/requests"].Series {
			n += s.Value
		}
		return n
	}
	deadline := time.Now().Add(2 * time.Second)
	for total() < observed && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := total(); got < observed || got > observed+dropped {
		h.violate(-1, -1, "metrics-requests",
			fmt.Sprintf("serve/requests total %d outside [%d, %d] (observed, +%d disconnects)",
				got, observed, observed+dropped, dropped))
	}
	shed := h.reg.Counter("serve/shed").Value()
	if seen := h.shed429.Load(); shed < seen || shed > seen+dropped {
		h.violate(-1, -1, "metrics-shed",
			fmt.Sprintf("serve/shed = %d outside [%d, %d]", shed, seen, seen+dropped))
	}
	if running := h.reg.Gauge("serve/jobs/running").Value(); running != 0 {
		h.violate(-1, -1, "metrics-running", fmt.Sprintf("serve/jobs/running = %v after drain", running))
	}
}

// digest condenses a result's slices into a comparable fingerprint.
func digest(slices []normSlice) string {
	b, _ := json.Marshal(slices)
	sum := fnv.New64a()
	sum.Write(b)
	return fmt.Sprintf("%016x", sum.Sum64())
}

func sameSlices(a, b []normSlice) bool {
	ab, _ := json.Marshal(a)
	bb, _ := json.Marshal(b)
	return bytes.Equal(ab, bb)
}
