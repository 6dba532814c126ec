package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"midas"
	"midas/internal/obs"
	"midas/internal/serve"
	"midas/internal/store"
)

// service is an in-process serve.Server on a loopback listener.
type service struct {
	srv   *serve.Server
	http  *http.Server
	base  string
	reg   *obs.Registry
	store *store.Store
	done  chan error
}

func startService(opts serve.Options) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{
		srv:   serve.New(opts),
		base:  "http://" + ln.Addr().String(),
		reg:   opts.Registry,
		store: opts.Store,
		done:  make(chan error, 1),
	}
	s.http = &http.Server{Handler: s.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// stop shuts the listener down, drains the server (which snapshots
// durable sessions) and closes the store.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.srv.Drain(ctx)
	s.srv.Close()
	if s.store != nil {
		if cerr := s.store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// client is one curator: a single connection, one request at a time.
type client struct {
	session string
	base    string
	hc      *http.Client
	tr      *http.Transport
	rec     *recorder
}

func newClient(base, session string, rec *recorder) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &client{
		session: session,
		base:    base,
		hc:      &http.Client{Transport: tr, Timeout: 120 * time.Second},
		tr:      tr,
		rec:     rec,
	}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends one request and reads the whole reply; a non-2xx status is
// an error.
func (c *client) do(method, path, ctype string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading reply: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(reply))
	}
	return reply, nil
}

// timed runs one request as the operation op and decodes its JSON reply
// into out (outside the timing).
func (c *client) timed(op, method, path, ctype string, body []byte, out any) error {
	var reply []byte
	err := c.rec.time(op, func() error {
		var err error
		reply, err = c.do(method, path, ctype, body)
		return err
	})
	if err != nil || out == nil {
		return err
	}
	if err := json.Unmarshal(reply, out); err != nil {
		c.rec.wrong("%s: decoding reply: %v", op, err)
		return err
	}
	return nil
}

type jobReply struct {
	Job    string `json:"job"`
	Status string `json:"status"`
	Cached bool   `json:"cached"`
}

type progressReply struct {
	KBFacts  int     `json:"kb_facts"`
	Coverage float64 `json:"coverage"`
}

type absorbReply struct {
	Added int `json:"added"`
}

// setup creates the client's session, bulk-loads its KB and primed
// corpus as TSV, and runs (and fetches) the first discovery.
func (c *client) setup(kbTSV, primedTSV []byte) error {
	create, _ := json.Marshal(map[string]string{"name": c.session})
	steps := []struct {
		method, path, ctype string
		body                []byte
	}{
		{"POST", "/api/sessions", "application/json", create},
		{"POST", c.path("kb?format=tsv"), "text/tab-separated-values", kbTSV},
		{"POST", c.path("facts"), "text/tab-separated-values", primedTSV},
	}
	for _, s := range steps {
		if _, err := c.do(s.method, s.path, s.ctype, s.body); err != nil {
			return err
		}
	}
	reply, err := c.do("POST", c.path("discover?wait=true"), "", nil)
	if err != nil {
		return err
	}
	var job jobReply
	if err := json.Unmarshal(reply, &job); err != nil {
		return err
	}
	_, err = c.do("GET", "/api/jobs/"+job.Job+"/result", "", nil)
	return err
}

func (c *client) path(rest string) string { return "/api/sessions/" + c.session + "/" + rest }

// served is what one round observed, kept for the checks made after
// the timing window.
type served struct {
	page        []midas.Fact
	fingerprint uint64
	digest      uint64
	resultBytes int
	absorbed    *wireSlice
	added       int
	progress    *progressReply
}

// round runs one curation round: POST a page of facts, discover (a
// cache miss), GET the result, discover again (an exact cache hit) and,
// when absorb is set, absorb the top slice and GET progress. Light
// checks run inline; the mirror comparison runs after the window.
func (c *client) round(page []midas.Fact, absorb bool) (*served, error) {
	out := &served{page: page}
	if err := c.timed("ingest", "POST", c.path("facts"), "application/json", factsJSON(page), nil); err != nil {
		return nil, err
	}
	var miss jobReply
	if err := c.timed("discover", "POST", c.path("discover?wait=true"), "", nil, &miss); err != nil {
		return nil, err
	}
	if miss.Cached || miss.Status != serve.StateDone {
		c.rec.wrong("discover after new facts: status %q cached %v, want a completed miss", miss.Status, miss.Cached)
	}
	var raw []byte
	err := c.rec.time("result_get", func() error {
		var err error
		raw, err = c.do("GET", "/api/jobs/"+miss.Job+"/result", "", nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	var res wireResult
	if err := json.Unmarshal(raw, &res); err != nil {
		c.rec.wrong("decoding job result: %v", err)
		return nil, err
	}
	out.resultBytes = len(raw)
	out.fingerprint, err = strconv.ParseUint(res.Fingerprint, 16, 64)
	if err != nil {
		c.rec.wrong("job result fingerprint %q: %v", res.Fingerprint, err)
	}
	out.digest = digest(res.Slices)
	var hit jobReply
	if err := c.timed("repeat_discover", "POST", c.path("discover?wait=true"), "", nil, &hit); err != nil {
		return nil, err
	}
	if !hit.Cached {
		c.rec.wrong("repeat discover on an unchanged session missed the cache")
	}
	if !absorb || len(res.Slices) == 0 {
		return out, nil
	}
	body, _ := json.Marshal(map[string]any{"job": miss.Job, "slices": []int{0}})
	var ab absorbReply
	if err := c.timed("absorb", "POST", c.path("absorb"), "application/json", body, &ab); err != nil {
		return nil, err
	}
	out.absorbed, out.added = &res.Slices[0], ab.Added
	out.progress = &progressReply{}
	if err := c.timed("progress", "GET", c.path("progress"), "", nil, out.progress); err != nil {
		return nil, err
	}
	return out, nil
}

// sessions supplies the served sessions through the serve.Options
// seams: each gets the workload's private metrics registry and, on a
// traced run, the tracing detector, whose spans hang under the job
// span that wrap opens.
type sessions struct {
	metrics *midas.Metrics
	t       *tracer
	detReg  *obs.Registry
	parents sync.Map // *midas.Session → *parent
	// existing, when set, is served for every created session (the
	// serving probe of the in-process workloads).
	existing *midas.Session
}

func (f *sessions) options(o *midas.Options) *midas.Options {
	opts := midas.Options{}
	if o != nil {
		opts = *o
	}
	opts.Metrics = f.metrics
	return &opts
}

// newSession is the serve.Options.NewSession seam.
func (f *sessions) newSession(o *midas.Options) *midas.Session {
	if f.existing != nil {
		return f.existing
	}
	opts, p := f.options(o), &parent{}
	opts.Detect = f.t.detector(p, f.detReg)
	s := midas.NewSession(nil, opts)
	f.parents.Store(s, p)
	return s
}

// wrap is the serve.Options.WrapDiscover seam: it times the discovery
// job body as serve/job spans. nil on the untraced run.
func (f *sessions) wrap() func(serve.Discover) serve.Discover {
	if f.t == nil {
		return nil
	}
	return func(next serve.Discover) serve.Discover {
		return func(ctx context.Context, sess *midas.Session) (*midas.Result, error) {
			var res *midas.Result
			err := f.t.span("serve/job", func(jobCtx context.Context) error {
				if p, ok := f.parents.Load(sess); ok {
					p.(*parent).set(jobCtx)
				}
				var err error
				// The server's own context goes on: its spans belong to
				// the server's tracer, not the benchmark's.
				res, err = next(ctx, sess)
				return err
			})
			return res, err
		}
	}
}

// serveOptions wires the seams into serve.Options.
func (f *sessions) serveOptions(st *store.Store) serve.Options {
	return serve.Options{
		Registry:       obs.New(),
		Store:          st,
		NewSession:     f.newSession,
		RestoreOptions: f.options,
		WrapDiscover:   f.wrap(),
	}
}

// serveMetrics adds the serve-layer metrics of a served run: job time
// from the serve/job spans, the client-visible overhead on top of it,
// and the server's own counters.
func (r layerReport) serveMetrics(t *tracer, svc *service, rec *recorder, resultBytes []float64) {
	job := t.p50("serve/job")
	hits, misses := svc.reg.Counter("serve/cache/hit").Value(), svc.reg.Counter("serve/cache/miss").Value()
	r.set("serve.job_s", job, "s")
	r.set("serve.overhead_s", median(rec.get("discover"))-job, "s")
	r.set("serve.cache_hit_ratio", float64(hits)/float64(hits+misses), "ratio")
	r.set("serve.result_bytes", median(resultBytes), "bytes")
	r.set("serve.shed", float64(svc.reg.Counter("serve/shed").Value()), "count")
	r.set("obs.spans_retained", float64(svc.srv.Tracer().Len()), "count")
}

// probeRounds is how many rounds the serving probe runs.
const probeRounds = 8

// probeServe serves an in-process workload's session over loopback
// for a few rounds (one page of facts each) to measure the serve layer
// on that workload's state; p is the session's detect parent.
func (r layerReport) probeServe(t *tracer, sess *midas.Session, p *parent, pages [][]midas.Fact) error {
	f := &sessions{t: t, existing: sess}
	f.parents.Store(sess, p)
	svc, err := startService(f.serveOptions(nil))
	if err != nil {
		return err
	}
	rec := newRecorder()
	c := newClient(svc.base, "probe", rec)
	create, _ := json.Marshal(map[string]string{"name": c.session})
	_, err = c.do("POST", "/api/sessions", "application/json", create)
	var sizes []float64
	for i := 0; i < probeRounds && err == nil; i++ {
		var s *served
		if s, err = c.round(pages[i%len(pages)], false); err == nil {
			sizes = append(sizes, float64(s.resultBytes))
		}
	}
	c.close()
	if serr := svc.stop(); err == nil {
		err = serr
	}
	if _, failed := rec.counts(); failed > 0 && err == nil {
		err = fmt.Errorf("serving probe: %v", rec.notes)
	}
	if err != nil {
		return err
	}
	r.serveMetrics(t, svc, rec, sizes)
	return nil
}
