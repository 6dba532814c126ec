package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"midas"
	"midas/internal/core"
	"midas/internal/fact"
	"midas/internal/hierarchy"
	"midas/internal/kb"
	"midas/internal/obs"
	"midas/internal/slice"
	"midas/internal/store"
)

// tracer records the benchmark's own spans around calls into each
// layer's public functions and seams, and folds every finished trace
// into aggregates keyed by its root span's name. A nil *tracer is the
// untraced run: every method is a no-op and the program runs its
// production path.
type tracer struct {
	tr *obs.Tracer

	mu    sync.Mutex
	roots map[string]*rootAgg
}

// rootAgg aggregates the traces whose root span has one name.
type rootAgg struct {
	spanAgg
	kids map[string]*spanAgg // direct children by name
	// covered sums the part of each root span its children cover; the
	// root's self time is its duration minus that.
	covered float64
	// counts sums the integer annotations the children carry.
	counts map[string]int64
}

type spanAgg struct {
	durs []float64
	max  float64
}

func (a *spanAgg) add(d float64) {
	a.durs = append(a.durs, d)
	a.max = math.Max(a.max, d)
}

func (a *spanAgg) total() float64 {
	t := 0.0
	for _, d := range a.durs {
		t += d
	}
	return t
}

func newTracer() *tracer {
	t := obs.NewTracer()
	t.SetRetention(-1)
	return &tracer{tr: t, roots: map[string]*rootAgg{}}
}

// span runs fn inside a root span called name.
func (t *tracer) span(name string, fn func(ctx context.Context) error) error {
	if t == nil {
		return fn(context.Background())
	}
	ctx, sp := t.tr.StartSpan(context.Background(), name)
	err := fn(ctx)
	sp.End()
	t.fold(t.tr.TakeTrace(sp.TraceID()))
	return err
}

// fold aggregates one finished trace.
func (t *tracer) fold(recs []obs.SpanRecord) {
	var root *obs.SpanRecord
	for i := range recs {
		if recs[i].Parent == 0 {
			root = &recs[i]
		}
	}
	if root == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	agg := t.roots[root.Name]
	if agg == nil {
		agg = &rootAgg{kids: map[string]*spanAgg{}, counts: map[string]int64{}}
		t.roots[root.Name] = agg
	}
	agg.add(root.Duration.Seconds())
	type interval struct{ a, b time.Duration }
	var kids []interval
	for _, r := range recs {
		if r.Parent != root.ID {
			continue
		}
		k := agg.kids[r.Name]
		if k == nil {
			k = &spanAgg{}
			agg.kids[r.Name] = k
		}
		k.add(r.Duration.Seconds())
		for key, v := range r.Args {
			if n, err := strconv.ParseInt(v, 10, 64); err == nil {
				agg.counts[key] += n
			}
		}
		a, b := max(r.Start, root.Start), min(r.Start+r.Duration, root.Start+root.Duration)
		if b > a {
			kids = append(kids, interval{a, b})
		}
	}
	sort.Slice(kids, func(i, k int) bool { return kids[i].a < kids[k].a })
	var cover, end time.Duration
	for _, k := range kids {
		end = max(end, k.a)
		if k.b > end {
			cover += k.b - end
			end = k.b
		}
	}
	agg.covered += cover.Seconds()
}

// reset drops everything folded so far.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.roots = map[string]*rootAgg{}
	t.mu.Unlock()
}

// root returns the aggregate of the roots called name (empty if none).
func (t *tracer) root(name string) *rootAgg {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.roots[name]; a != nil {
		return a
	}
	return &rootAgg{kids: map[string]*spanAgg{}, counts: map[string]int64{}}
}

// p50 is the median duration of the roots called name.
func (t *tracer) p50(name string) float64 { return median(t.root(name).durs) }

// parent carries the span that the detector's spans hang under. The
// framework calls the detector from its own workers with no context,
// so the caller publishes the enclosing span here before calling in.
type parent struct {
	mu  sync.Mutex
	ctx context.Context
}

func (p *parent) set(ctx context.Context) {
	p.mu.Lock()
	p.ctx = ctx
	p.mu.Unlock()
}

func (p *parent) get() context.Context {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ctx == nil {
		return context.Background()
	}
	return p.ctx
}

// detector wraps the public midas.Options.Detect seam: it runs MIDASalg
// itself (core.DiscoverSeeded) inside a core/detect span that carries
// the hierarchy statistics of the source. nil on the untraced run, so
// the framework keeps its built-in detector.
func (t *tracer) detector(p *parent, reg *obs.Registry) midas.Detector {
	if t == nil {
		return nil
	}
	return func(table *fact.Table, seeds []hierarchy.Seed) []*slice.Slice {
		_, sp := t.tr.StartSpan(p.get(), "core/detect")
		res := core.DiscoverSeeded(table, seeds, core.Options{Obs: reg})
		sp.Arg("nodes_created", strconv.Itoa(res.Stats.NodesCreated)).
			Arg("nodes_removed", strconv.Itoa(res.Stats.NodesRemoved)).
			Arg("nodes_invalid", strconv.Itoa(res.Stats.NodesInvalid)).
			End()
		return res.Slices
	}
}

// layerReport assembles the per-layer metrics of a traced run.
type layerReport map[string]metric

func (r layerReport) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r[name] = metric{Value: v, Unit: unit}
}

// spans adds the metrics folded from the benchmark's spans: the detect
// layer under the discovery roots called discRoot, and the p50 of each
// midas.* operation root.
func (r layerReport) spans(t *tracer, discRoot string, runs registryDelta) {
	disc := t.root(discRoot)
	n := float64(len(disc.durs))
	det := disc.kids["core/detect"]
	if det == nil {
		det = &spanAgg{}
	}
	r.set("core.detect_s", det.total()/n, "s")
	r.set("core.detect_calls", float64(len(det.durs))/n, "count")
	r.set("core.detect_s.max", det.max, "s")
	created := float64(disc.counts["nodes_created"])
	r.set("hierarchy.nodes_created", created/n, "count")
	r.set("hierarchy.nodes_removed", float64(disc.counts["nodes_removed"])/n, "count")
	r.set("hierarchy.nodes_invalid", float64(disc.counts["nodes_invalid"])/n, "count")
	r.set("hierarchy.prune_ratio", float64(disc.counts["nodes_removed"]+disc.counts["nodes_invalid"])/created, "ratio")
	// framework.self_s: the framework's own time per discovery (sharding,
	// merging, consolidation, scheduling) — its run time minus the part
	// of the discovery that detect spans cover.
	r.set("framework.self_s", runs.timerMean("framework/run")-disc.covered/n, "s")
	for _, op := range []string{"add_facts", "discover", "absorb", "progress", "fingerprint"} {
		r.set("midas."+op+"_s", t.p50("midas/"+op), "s")
	}
}

// registryDelta is the change of a private registry over a timing
// window: the framework/* series the program already reports.
type registryDelta struct{ before, after obs.Snapshot }

func readRegistry(m *midas.Metrics) obs.Snapshot {
	var buf bytes.Buffer
	var s obs.Snapshot
	if err := m.WriteJSON(&buf); err == nil {
		json.Unmarshal(buf.Bytes(), &s) // a registry's own snapshot always decodes
	}
	return s
}

func (d registryDelta) counter(name string) float64 {
	return float64(d.after.Counters[name] - d.before.Counters[name])
}

func (d registryDelta) timerMean(name string) float64 {
	a, b := d.after.Timers[name], d.before.Timers[name]
	return (a.TotalSeconds - b.TotalSeconds) / float64(a.Count-b.Count)
}

// depthMean is the mean wall time per run of the framework round at one
// URL depth.
func (d registryDelta) depthMean(depth string) float64 {
	find := func(s obs.Snapshot) (float64, int64) {
		for _, ser := range s.TimerVecs["framework/depth"].Series {
			if ser.Labels["depth"] == depth {
				return ser.TotalSeconds, ser.Count
			}
		}
		return 0, 0
	}
	at, _ := find(d.after)
	bt, _ := find(d.before)
	runs := d.counter("framework/runs")
	return (at - bt) / runs
}

// framework adds the framework metrics from the registry delta.
func (r layerReport) framework(d registryDelta) {
	runs := d.counter("framework/runs")
	processed, reused := d.counter("framework/sources_processed"), d.counter("framework/sources_reused")
	r.set("framework.run_s", d.timerMean("framework/run"), "s")
	r.set("framework.rounds", d.counter("framework/rounds")/runs, "count")
	for _, depth := range []string{"01", "02", "03"} {
		r.set("framework.depth"+depth+"_s", d.depthMean(depth), "s")
	}
	r.set("framework.sources_processed", processed/runs, "count")
	r.set("framework.sources_reused", reused/runs, "count")
	r.set("framework.reuse_ratio", reused/(reused+processed), "ratio")
	r.set("framework.worker_utilization", d.after.Gauges["framework/worker_utilization"], "ratio")
}

// probeKB times interning the workload's current facts and KB through
// the public API (kb.intern_s), median of three.
func (r layerReport) probeKB(t *tracer, ds *dataset, facts []midas.Fact) {
	size := 0
	for i := 0; i < 3; i++ {
		t.span("kb/intern", func(context.Context) error {
			k := ds.newKB()
			c := midas.NewCorpus(k)
			for _, f := range facts {
				c.Add(f)
			}
			size = k.Size()
			return nil
		})
	}
	r.set("kb.intern_s", t.p50("kb/intern"), "s")
	r.set("kb.kb_triples", float64(size), "count")
}

// probeFact times a standalone fact.LeafSources over a corpus of the
// workload's current size, and fact.Build over every leaf source.
func (r layerReport) probeFact(t *tracer, ds *dataset, facts []midas.Fact) {
	space := kb.NewSpace()
	existing := kb.New(space)
	for _, tr := range ds.kb {
		existing.AddStrings(tr[0], tr[1], tr[2])
	}
	c := fact.NewCorpus(space)
	for _, f := range facts {
		c.Add(f)
	}
	var leaves map[string]*fact.LeafSource
	for i := 0; i < 3; i++ {
		t.span("fact/leaf_sources", func(context.Context) error {
			leaves = fact.LeafSources(c)
			return nil
		})
	}
	r.set("fact.leaf_sources_s", t.p50("fact/leaf_sources"), "s")
	r.set("fact.leaf_sources", float64(len(leaves)), "count")

	reg := obs.New()
	t.span("fact/build", func(context.Context) error {
		for src, ls := range leaves {
			fact.BuildObs(src, space, ls.Triples, existing, reg)
		}
		return nil
	})
	r.set("fact.build_s", t.p50("fact/build"), "s")
	r.set("fact.tables", float64(reg.Counter("fact/tables_built").Value()), "count")
}

// names lists the metrics in name order.
func (r layerReport) names() []string {
	names := make([]string, 0, len(r))
	for n := range r {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// mutation is one confirmed change of a session, as the store logs it.
type mutation struct {
	facts  []midas.Fact
	absorb *wireSlice
}

// maxReplay caps the mutations replayed into the store: under the
// batch fsync policy every append waits for a group commit.
const maxReplay = 256

// replayStore replays a workload's recorded mutation stream into a
// fresh store.Store under dir (Create, AppendFacts/AppendAbsorb, then
// Log.Snapshot and Store.Recover), timing each step, and checks that
// the recovered session has the fingerprint of a session fed the same
// stream.
func (r layerReport) replayStore(t *tracer, dir string, kbTSV []byte, stream []mutation) error {
	if len(stream) > maxReplay {
		stream = stream[:maxReplay]
	}
	reg := obs.New()
	open := func() (*store.Store, error) {
		return store.Open(store.Options{Dir: dir, Registry: reg})
	}
	st, err := open()
	if err != nil {
		return err
	}
	defer st.Close()
	sess := midas.NewSession(nil, &midas.Options{Metrics: midas.NewMetrics()})
	if _, err := sess.KB().LoadTSV(bytes.NewReader(kbTSV)); err != nil {
		return err
	}
	lg, err := st.Create("replay", []byte("null"))
	if err == nil {
		err = lg.AppendKB("tsv", kbTSV)
	}
	if err != nil {
		return err
	}
	wal := filepath.Join(dir, "sessions", "replay", "wal-*.log")
	walBefore, err := sizeOf(wal)
	if err != nil {
		return err
	}
	facts := 0
	for _, m := range stream {
		err := t.span("store/append", func(context.Context) error {
			if m.absorb != nil {
				return lg.AppendAbsorb([]store.AbsorbSlice{{Source: m.absorb.Source, Entities: m.absorb.Entities}})
			}
			return lg.AppendFacts(m.facts)
		})
		if err != nil {
			return err
		}
		if m.absorb != nil {
			sess.Absorb(m.absorb.toSlice())
		} else {
			sess.AddFacts(m.facts...)
			facts += len(m.facts)
		}
	}
	walAfter, err := sizeOf(wal)
	if err != nil {
		return err
	}
	if err := t.span("store/snapshot", func(context.Context) error { return lg.Snapshot(sess) }); err != nil {
		return err
	}
	snapBytes, err := sizeOf(filepath.Join(dir, "sessions", "replay", "snap-*.snap"))
	if err != nil {
		return err
	}
	if err := st.Close(); err != nil {
		return err
	}
	records, fsyncs := reg.Counter("store/records").Value(), reg.Counter("store/fsyncs").Value()
	st, err = open()
	if err != nil {
		return err
	}
	defer st.Close()
	want := sess.Fingerprint()
	err = t.span("store/recover", func(ctx context.Context) error {
		rec, err := st.Recover(ctx, func([]byte) (*midas.Options, error) {
			return &midas.Options{Metrics: midas.NewMetrics()}, nil
		})
		switch {
		case err != nil:
			return err
		case len(rec.Sessions) != 1 || rec.Sessions[0].Session.Fingerprint() != want:
			return fmt.Errorf("replayed store recovered %d sessions, want 1 at fingerprint %016x", len(rec.Sessions), want)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("store.records_per_fsync", float64(records)/float64(fsyncs), "ratio")
	r.set("store.wal_bytes_per_fact", float64(walAfter-walBefore)/float64(facts), "bytes")
	r.set("store.append_s.p50", t.p50("store/append"), "s")
	r.set("store.snapshot_s", t.p50("store/snapshot"), "s")
	r.set("store.snapshot_bytes", float64(snapBytes), "bytes")
	r.set("store.recover_s", t.p50("store/recover"), "s")
	return nil
}

// sizeOf sums the sizes of the files matching pattern.
func sizeOf(pattern string) (int64, error) {
	names, err := filepath.Glob(pattern)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, name := range names {
		fi, err := os.Stat(name)
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}
