package main

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"runtime"
	"time"

	"midas"
	"midas/internal/obs"
	"midas/internal/source"
)

// config is one run of one workload.
type config struct {
	workload string
	seed     int64
	// seconds is the measured window; time spent in correctness checks
	// is excluded from it.
	seconds float64
	// domains sizes the corpus layout (100 = ReVerb-Slim).
	domains int
	// setups is how many times set-up is timed; setup_s is their median.
	setups int
	// maxRounds, when positive, ends the window after that many rounds
	// instead of by the clock (the self-test).
	maxRounds int
	// canary corrupts one result on the benchmark's side, which the
	// correctness gate must reject.
	canary bool
	// workDir holds the run's temporary data directories.
	workDir string
}

// outcome is what one run of a workload measured.
type outcome struct {
	rec        *recorder
	setups     []float64
	active     float64 // measured seconds
	peakHeapMB float64
	allocs     []float64 // bytes allocated per discovery
	layers     layerReport
}

// window is the measured part of a run: it ends after cfg.seconds of
// measured time (or cfg.maxRounds rounds) and keeps correctness checks
// out of the measured time.
type window struct {
	cfg    config
	start  time.Time
	paused time.Duration
	rounds int
	heap   *heapSampler
}

func openWindow(cfg config) *window {
	runtimeSettle()
	return &window{cfg: cfg, start: time.Now(), heap: startHeapSampler()}
}

// runtimeSettle collects set-up garbage so the window starts from the
// same heap state on every run.
func runtimeSettle() {
	runtime.GC()
	runtime.GC()
}

func (w *window) elapsed() time.Duration { return time.Since(w.start) - w.paused }

// more reports whether another round fits in the window.
func (w *window) more() bool { return w.moreAt(w.rounds) }

// moreAt reports whether a client that has run rounds rounds starts
// another; safe for concurrent clients.
func (w *window) moreAt(rounds int) bool {
	if w.cfg.maxRounds > 0 {
		return rounds < w.cfg.maxRounds
	}
	return w.elapsed().Seconds() < w.cfg.seconds
}

// check runs fn outside the measured time.
func (w *window) check(fn func()) {
	start := time.Now()
	fn()
	w.paused += time.Since(start)
}

func (w *window) close(o *outcome) {
	o.active = w.elapsed().Seconds()
	o.peakHeapMB = w.heap.finish()
}

// timeDiscover runs one discovery as the operation op inside a
// midas/<op> span, publishing the span as the detect parent, and
// records the bytes it allocated when it is a first discovery after a
// change.
func timeDiscover(o *outcome, t *tracer, p *parent, op string, fn func() *midas.Result) (*midas.Result, error) {
	var res *midas.Result
	before := allocatedBytes()
	err := o.rec.time(op, func() error {
		return t.span("midas/"+op, func(ctx context.Context) error {
			p.set(ctx)
			res = fn()
			if res == nil {
				return errors.New("discovery returned no result")
			}
			return nil
		})
	})
	if err == nil && op == "discover" {
		o.allocs = append(o.allocs, float64(allocatedBytes()-before))
	}
	return res, err
}

// timeOp runs fn as the operation op inside a root span called span.
func timeOp(o *outcome, t *tracer, op, span string, fn func() error) error {
	return o.rec.time(op, func() error {
		return t.span(span, func(context.Context) error { return fn() })
	})
}

// encodeResult is result_get_s on the in-process workloads: the JSON
// encoding of the result in the service's wire shape.
func encodeResult(o *outcome, res *midas.Result) error {
	return o.rec.time("result_get", func() error {
		b, err := json.Marshal(toWire(res))
		if err == nil && len(b) == 0 {
			err = errors.New("empty encoding")
		}
		return err
	})
}

// --- batch-reverb: repeated from-scratch midas.Discover ---

type batch struct {
	ds        *dataset
	bySubject map[string][]int // fact indexes by subject
	unique    [][3]string      // distinct corpus triples
}

// load builds the KB and corpus from scratch, as a batch run does.
func (b *batch) load() (*midas.KB, *midas.Corpus) {
	k := b.ds.newKB()
	c := midas.NewCorpus(k)
	for _, f := range b.ds.facts {
		c.Add(f)
	}
	return k, c
}

// absorb adds to k the corpus facts of the slice's entities at or
// under its source (what Session.Absorb does, through the KB API).
func (b *batch) absorb(k *midas.KB, sl midas.Slice) int {
	added := 0
	for _, e := range sl.Entities {
		for _, i := range b.bySubject[e] {
			f := b.ds.facts[i]
			if underSource(f.URL, sl.Source) && k.Add(f.Subject, f.Predicate, f.Object) {
				added++
			}
		}
	}
	return added
}

// coverage is the share of distinct corpus facts the KB holds (what
// Session.Progress reports, through the KB API).
func (b *batch) coverage(k *midas.KB) float64 {
	n := 0
	for _, t := range b.unique {
		if k.Contains(t[0], t[1], t[2]) {
			n++
		}
	}
	return float64(n) / float64(len(b.unique))
}

func runBatch(cfg config, t *tracer) (*outcome, error) {
	o := &outcome{rec: newRecorder()}
	m, detReg, p := midas.NewMetrics(), obs.New(), &parent{}
	opts := &midas.Options{Metrics: m, Detect: t.detector(p, detReg)}
	var b *batch
	var first *midas.Result
	for i := 0; i < cfg.setups; i++ {
		start := time.Now()
		b = &batch{ds: generate(cfg.domains, cfg.seed), bySubject: map[string][]int{}}
		k, c := b.load()
		t.span("midas/setup_discover", func(ctx context.Context) error {
			p.set(ctx)
			first = midas.Discover(c, k, opts)
			return nil
		})
		o.setups = append(o.setups, time.Since(start).Seconds())
	}
	seen := map[[3]string]bool{}
	for i, f := range b.ds.facts {
		b.bySubject[f.Subject] = append(b.bySubject[f.Subject], i)
		if tr := [3]string{f.Subject, f.Predicate, f.Object}; !seen[tr] {
			seen[tr] = true
			b.unique = append(b.unique, tr)
		}
	}
	// The reference every result must equal: a sequential run.
	k, c := b.load()
	ref := resultDigest(midas.Discover(c, k, &midas.Options{Workers: 1, Metrics: midas.NewMetrics()}))
	if resultDigest(first) != ref {
		o.rec.wrong("set-up discovery differs from the Workers: 1 reference")
	}
	canary := cfg.canary
	verify := func(res *midas.Result, what string) {
		slices := toWire(res).Slices
		if canary {
			slices, canary = corrupt(slices), false
		}
		if digest(slices) != ref {
			o.rec.wrong("%s differs from the Workers: 1 reference", what)
		}
	}

	before := readRegistry(m)
	w := openWindow(cfg)
	for ; w.more(); w.rounds++ {
		var k *midas.KB
		var c *midas.Corpus
		if err := timeOp(o, t, "ingest", "midas/add_facts", func() error { k, c = b.load(); return nil }); err != nil {
			return nil, err
		}
		res, err := timeDiscover(o, t, p, "discover", func() *midas.Result { return midas.Discover(c, k, opts) })
		if err != nil {
			return nil, err
		}
		w.check(func() { verify(res, "discovery") })
		if err := encodeResult(o, res); err != nil {
			return nil, err
		}
		if w.rounds%4 == 3 {
			again, err := timeDiscover(o, t, p, "repeat_discover", func() *midas.Result { return midas.Discover(c, k, opts) })
			if err != nil {
				return nil, err
			}
			w.check(func() { verify(again, "repeated discovery") })
		}
		if len(res.Slices) == 0 {
			continue
		}
		// Absorb and progress are cheap here, so every round takes them
		// and their medians rest on as many samples as discover_s.
		size := k.Size()
		added := 0
		if err := timeOp(o, t, "absorb", "midas/absorb", func() error { added = b.absorb(k, res.Slices[0]); return nil }); err != nil {
			return nil, err
		}
		covered := 0.0
		if err := timeOp(o, t, "progress", "midas/progress", func() error { covered = b.coverage(k); return nil }); err != nil {
			return nil, err
		}
		w.check(func() {
			if k.Size() != size+added || covered <= 0 || covered > 1 {
				o.rec.wrong("absorb added %d facts to a KB of %d, now %d; coverage %v", added, size, k.Size(), covered)
			}
		})
	}
	w.close(o)
	if t == nil {
		return o, nil
	}

	o.layers = layerReport{}
	delta := registryDelta{before, readRegistry(m)}
	o.layers.spans(t, "midas/discover", delta)
	o.layers.framework(delta)
	o.layers.probeKB(t, b.ds, b.ds.facts)
	o.layers.probeFact(t, b.ds, b.ds.facts)
	stream := []mutation{{facts: b.ds.facts}}
	for _, page := range b.ds.pages {
		stream = append(stream, mutation{facts: page})
	}
	if err := o.layers.replay(t, cfg, b.ds, stream); err != nil {
		return nil, err
	}
	// Batch has no session: the serving probe and the (cold) fingerprint
	// run on one primed with the whole corpus.
	sess := midas.NewSession(b.ds.newKB(), &midas.Options{Metrics: midas.NewMetrics(), Detect: t.detector(p, detReg)})
	sess.AddFacts(b.ds.facts...)
	t.span("midas/fingerprint", func(context.Context) error { sess.Fingerprint(); return nil })
	o.layers.set("midas.fingerprint_s", t.p50("midas/fingerprint"), "s")
	t.span("probe/warmup", func(ctx context.Context) error { p.set(ctx); sess.Discover(); return nil })
	if err := o.layers.probeServe(t, sess, p, b.ds.pages); err != nil {
		return nil, err
	}
	return o, nil
}

// underSource reports whether url lies at or under the normalized
// source src.
func underSource(url, src string) bool {
	s := source.Normalize(url)
	return s == src || len(s) > len(src) && s[:len(src)] == src && s[len(src)] == '/'
}

// --- curate-session: an in-process midas.Session curation loop ---

func runCurate(cfg config, t *tracer) (*outcome, error) {
	o := &outcome{rec: newRecorder()}
	m, detReg, p := midas.NewMetrics(), obs.New(), &parent{}
	var (
		ds     *dataset
		sess   *midas.Session
		fed    []midas.Fact
		stream []mutation
	)
	for i := 0; i < cfg.setups; i++ {
		start := time.Now()
		ds = generate(cfg.domains, cfg.seed)
		sess = midas.NewSession(ds.newKB(), &midas.Options{Metrics: m, Detect: t.detector(p, detReg)})
		sess.AddFacts(ds.primed...)
		t.span("midas/setup_discover", func(ctx context.Context) error {
			p.set(ctx)
			sess.Discover()
			return nil
		})
		o.setups = append(o.setups, time.Since(start).Seconds())
	}
	fed = append(fed, ds.primed...)
	stream = append(stream, mutation{facts: ds.primed})

	rng := rand.New(rand.NewSource(cfg.seed))
	canary := cfg.canary
	// verify checks res against a from-scratch midas.Discover over the
	// same facts and KB.
	verify := func(res *midas.Result) {
		k := sess.KB()
		c := midas.NewCorpus(k)
		for _, f := range fed {
			c.Add(f)
		}
		want := resultDigest(midas.Discover(c, k, &midas.Options{Metrics: midas.NewMetrics()}))
		slices := toWire(res).Slices
		if canary {
			slices, canary = corrupt(slices), false
		}
		if digest(slices) != want {
			o.rec.wrong("session result after %d facts differs from a from-scratch discovery", len(fed))
		}
	}

	var last *midas.Result
	before := readRegistry(m)
	w := openWindow(cfg)
	for ; w.more() && w.rounds < len(ds.held); w.rounds++ {
		page := ds.held[w.rounds]
		if err := timeOp(o, t, "ingest", "midas/add_facts", func() error { sess.AddFacts(page...); return nil }); err != nil {
			return nil, err
		}
		fed = append(fed, page...)
		stream = append(stream, mutation{facts: page})
		if t != nil {
			// Traced runs only: the call advances the session's cached
			// fingerprint, so the untraced run must not make it.
			t.span("midas/fingerprint", func(context.Context) error { sess.Fingerprint(); return nil })
		}
		res, err := timeDiscover(o, t, p, "discover", sess.Discover)
		if err != nil {
			return nil, err
		}
		again, err := timeDiscover(o, t, p, "repeat_discover", sess.Discover)
		if err != nil {
			return nil, err
		}
		w.check(func() {
			if again.Fingerprint != res.Fingerprint || resultDigest(again) != resultDigest(res) {
				o.rec.wrong("repeated discovery on an unchanged session differs")
			}
		})
		if err := encodeResult(o, res); err != nil {
			return nil, err
		}
		if w.rounds%4 == 3 && len(res.Slices) > 0 {
			top := res.Slices[0]
			if err := timeOp(o, t, "absorb", "midas/absorb", func() error { sess.Absorb(top); return nil }); err != nil {
				return nil, err
			}
			ws := toWire(&midas.Result{Slices: []midas.Slice{top}}).Slices[0]
			stream = append(stream, mutation{absorb: &ws})
			if res, err = timeDiscover(o, t, p, "discover", sess.Discover); err != nil {
				return nil, err
			}
			if err := timeOp(o, t, "progress", "midas/progress", func() error { sess.Progress(); return nil }); err != nil {
				return nil, err
			}
		}
		last = res
		if rng.Intn(32) == 0 {
			w.check(func() { verify(res) })
		}
	}
	w.close(o)
	if last == nil {
		return nil, errors.New("no round completed")
	}
	verify(last)
	if t == nil {
		return o, nil
	}

	o.layers = layerReport{}
	delta := registryDelta{before, readRegistry(m)}
	o.layers.spans(t, "midas/discover", delta)
	o.layers.framework(delta)
	o.layers.probeKB(t, ds, fed)
	o.layers.probeFact(t, ds, fed)
	if err := o.layers.replay(t, cfg, ds, stream); err != nil {
		return nil, err
	}
	pages := ds.held[w.rounds:]
	if len(pages) < probeRounds {
		pages = ds.pages
	}
	if err := o.layers.probeServe(t, sess, p, pages); err != nil {
		return nil, err
	}
	return o, nil
}

// replay runs replayStore in a temporary directory under the run's
// work directory and removes it afterwards.
func (r layerReport) replay(t *tracer, cfg config, ds *dataset, stream []mutation) error {
	dir, err := os.MkdirTemp(cfg.workDir, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	return r.replayStore(t, dir, ds.kbTSV(), stream)
}
