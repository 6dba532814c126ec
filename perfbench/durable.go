package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"time"

	"midas"
	"midas/internal/obs"
	"midas/internal/serve"
	"midas/internal/store"
)

// --- serve-durable: two curators against serve.Server + store.Store ---

// curators is the number of closed-loop clients; each owns one session
// and one connection. It matches the 2-vCPU host the workload was sized
// on, so load never needs more client goroutines than cores.
const curators = 2

type durable struct {
	ds       *dataset
	dir      string
	svc      *service
	storeReg *obs.Registry
	sessions *sessions
	clients  []*client
}

func setupDurable(cfg config, t *tracer, m *midas.Metrics, detReg *obs.Registry, rec *recorder) (*durable, error) {
	d := &durable{ds: generate(cfg.domains, cfg.seed), storeReg: obs.New()}
	var err error
	if d.dir, err = os.MkdirTemp(cfg.workDir, "serve-"); err != nil {
		return nil, err
	}
	st, err := store.Open(store.Options{Dir: d.dir, Fsync: store.PolicyBatch, Registry: d.storeReg})
	if err != nil {
		os.RemoveAll(d.dir)
		return nil, err
	}
	d.sessions = &sessions{metrics: m, t: t, detReg: detReg}
	if d.svc, err = startService(d.sessions.serveOptions(st)); err != nil {
		st.Close()
		os.RemoveAll(d.dir)
		return nil, err
	}
	kbTSV, primed := d.ds.kbTSV(), factsTSV(d.ds.primed)
	errs := make([]error, curators)
	var wg sync.WaitGroup
	for i := 0; i < curators; i++ {
		c := newClient(d.svc.base, "c"+strconv.Itoa(i), rec)
		d.clients = append(d.clients, c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.setup(kbTSV, primed)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			d.teardown()
			return nil, err
		}
	}
	return d, nil
}

// teardown stops the service and removes the data directory.
func (d *durable) teardown() error {
	for _, c := range d.clients {
		c.close()
	}
	err := d.svc.stop()
	os.RemoveAll(d.dir)
	return err
}

// pages is client i's share of the held-back pages: every client walks
// the same list from its own offset.
func (d *durable) pages(i int) [][]midas.Fact {
	off := i * len(d.ds.held) / curators
	return append(d.ds.held[off:len(d.ds.held):len(d.ds.held)], d.ds.held[:off]...)
}

func runDurable(cfg config, t *tracer) (*outcome, error) {
	o := &outcome{rec: newRecorder()}
	m, detReg := midas.NewMetrics(), obs.New()
	var d *durable
	for i := 0; i < cfg.setups; i++ {
		if d != nil {
			if err := d.teardown(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if d, err = setupDurable(cfg, t, m, detReg, o.rec); err != nil {
			return nil, err
		}
		o.setups = append(o.setups, time.Since(start).Seconds())
	}
	t.reset() // set-up jobs are not part of the measured traces
	runsBefore, storeBefore := readRegistry(m), d.storeReg.Snapshot()
	allocBefore := allocatedBytes()

	logs := make([][]*served, curators)
	var wg sync.WaitGroup
	w := openWindow(cfg)
	for i, c := range d.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pages := d.pages(i)
			for r := 0; r < len(pages) && w.moreAt(r); r++ {
				s, err := c.round(pages[r], r%4 == 3)
				if err != nil {
					return
				}
				logs[i] = append(logs[i], s)
			}
		}()
	}
	wg.Wait()
	w.close(o)
	discovers := len(o.rec.get("discover"))
	if discovers > 0 {
		o.allocs = []float64{float64(allocatedBytes()-allocBefore) / float64(discovers)}
	}
	runs := registryDelta{runsBefore, readRegistry(m)}
	storeAfter := d.storeReg.Snapshot()
	if t != nil {
		o.layers = layerReport{}
		var sizes []float64
		for _, l := range logs {
			for _, s := range l {
				sizes = append(sizes, float64(s.resultBytes))
			}
		}
		o.layers.serveMetrics(t, d.svc, o.rec, sizes)
	}

	mirrors, err := d.verify(cfg, t, o.rec, logs)
	if err != nil {
		d.teardown()
		return nil, err
	}
	if err := d.verifyRecovery(o.rec, mirrors); err != nil {
		return nil, err
	}
	if t == nil {
		return o, nil
	}

	o.layers.spans(t, "serve/job", runs)
	o.layers.set("midas.discover_s", t.p50("serve/job"), "s")
	o.layers.framework(runs)
	fed := append([]midas.Fact(nil), d.ds.primed...)
	stream := []mutation{{facts: d.ds.primed}}
	for _, s := range logs[0] {
		fed = append(fed, s.page...)
		stream = append(stream, mutation{facts: s.page})
		if s.absorbed != nil {
			stream = append(stream, mutation{absorb: s.absorbed})
		}
	}
	o.layers.probeKB(t, d.ds, fed)
	o.layers.probeFact(t, d.ds, fed)
	if err := o.layers.replay(t, cfg, d.ds, stream); err != nil {
		return nil, err
	}
	records := storeAfter.Counters["store/records"] - storeBefore.Counters["store/records"]
	fsyncs := storeAfter.Counters["store/fsyncs"] - storeBefore.Counters["store/fsyncs"]
	o.layers.set("store.records_per_fsync", float64(records)/float64(fsyncs), "ratio")
	return o, nil
}

// verify replays each client's operations into a mirror midas.Session
// after the window: every result's fingerprint must match the mirror's,
// and a seeded sample of results, absorbs and progress reports must
// equal the mirror's.
func (d *durable) verify(cfg config, t *tracer, rec *recorder, logs [][]*served) ([]*midas.Session, error) {
	mirrors := make([]*midas.Session, curators)
	canary := cfg.canary
	for i, log := range logs {
		mirror := midas.NewSession(nil, &midas.Options{Metrics: midas.NewMetrics()})
		mirrors[i] = mirror
		if _, err := mirror.KB().LoadTSV(bytes.NewReader(d.ds.kbTSV())); err != nil {
			return nil, err
		}
		mirror.AddFacts(d.ds.primed...)
		rng := rand.New(rand.NewSource(cfg.seed + int64(i)))
		for r, s := range log {
			sampled := r == len(log)-1 || rng.Intn(16) == 0
			t.span("midas/add_facts", func(context.Context) error { mirror.AddFacts(s.page...); return nil })
			var fp uint64
			t.span("midas/fingerprint", func(context.Context) error { fp = mirror.Fingerprint(); return nil })
			if fp != s.fingerprint {
				rec.wrong("client %d round %d: result fingerprint %016x, session is at %016x", i, r, s.fingerprint, fp)
			}
			if sampled {
				got := s.digest
				if canary {
					got, canary = digest(corrupt(nil)), false
				}
				if got != resultDigest(mirror.Discover()) {
					rec.wrong("client %d round %d: served result differs from the mirror session's", i, r)
				}
			}
			if s.absorbed == nil {
				continue
			}
			added := 0
			t.span("midas/absorb", func(context.Context) error { added = mirror.Absorb(s.absorbed.toSlice()); return nil })
			if added != s.added {
				rec.wrong("client %d round %d: absorb added %d facts, mirror %d", i, r, s.added, added)
			}
			if sampled {
				var kbFacts int
				var coverage float64
				t.span("midas/progress", func(context.Context) error { kbFacts, coverage = mirror.Progress(); return nil })
				if kbFacts != s.progress.KBFacts || coverage != s.progress.Coverage {
					rec.wrong("client %d round %d: progress %+v, mirror {%d %v}", i, r, *s.progress, kbFacts, coverage)
				}
			}
		}
	}
	return mirrors, nil
}

// verifyRecovery closes the server, reopens the store, and runs
// Server.Recover: every session must come back recovered at its
// pre-close fingerprint. It tears the workload down either way.
func (d *durable) verifyRecovery(rec *recorder, mirrors []*midas.Session) error {
	want := map[string]uint64{}
	for i, c := range d.clients {
		reply, err := c.do("GET", "/api/sessions/"+c.session, "", nil)
		if err != nil {
			d.teardown()
			return err
		}
		var info struct {
			Fingerprint string `json:"fingerprint"`
		}
		if err := json.Unmarshal(reply, &info); err != nil {
			d.teardown()
			return err
		}
		fp, err := strconv.ParseUint(info.Fingerprint, 16, 64)
		if err != nil || fp != mirrors[i].Fingerprint() {
			rec.wrong("session %s is at %q before close, mirror at %016x", c.session, info.Fingerprint, mirrors[i].Fingerprint())
		}
		want[c.session] = fp
	}
	for _, c := range d.clients {
		c.close()
	}
	if err := d.svc.stop(); err != nil {
		os.RemoveAll(d.dir)
		return err
	}
	defer os.RemoveAll(d.dir)
	st, err := store.Open(store.Options{Dir: d.dir, Registry: obs.New()})
	if err != nil {
		return err
	}
	defer st.Close()
	srv := serve.New(d.sessions.serveOptions(st))
	defer srv.Close()
	recovery, err := srv.Recover(context.Background())
	if err != nil {
		return fmt.Errorf("recovering the store: %w", err)
	}
	for _, q := range recovery.Quarantined {
		rec.wrong("session %s quarantined at recovery: %v", q.Name, q.Err)
	}
	if len(recovery.Sessions) != len(want) {
		rec.wrong("%d sessions recovered, %d were closed", len(recovery.Sessions), len(want))
	}
	// Ask the recovered server, as a client would, for each session.
	h := srv.Handler()
	for name, fp := range want {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", "/api/sessions/"+name, nil))
		var info struct {
			Fingerprint string `json:"fingerprint"`
			Recovered   bool   `json:"recovered"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil || w.Code != 200 ||
			!info.Recovered || info.Fingerprint != fmt.Sprintf("%016x", fp) {
			rec.wrong("session %s after recovery: %d %s, want recovered at %016x", name, w.Code, w.Body.Bytes(), fp)
		}
	}
	return nil
}
