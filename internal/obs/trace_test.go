package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// decodeTrace parses WriteChromeTrace output through encoding/json,
// proving the export is well-formed Chrome trace-event JSON.
func decodeTrace(t *testing.T, tr *Tracer) []chromeEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		TraceEvents     []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	return doc.TraceEvents
}

func TestTracerSpansAndArgs(t *testing.T) {
	tr := NewTracer()
	ctx, root := tr.StartSpan(context.Background(), "framework/run")
	_, child := StartSpan(ctx, "detect")
	child.Arg("slices", "2").Arg("slices", "3").End()
	root.Arg("rounds", "1").End()
	if len(child.args) != 1 {
		t.Errorf("a repeated key left %d args, want 1", len(child.args))
	}

	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tr.Len())
	}
	events := decodeTrace(t, tr)
	byName := map[string]chromeEvent{}
	for _, ev := range events {
		if ev.Phase != "X" || ev.Cat != "midas" || ev.PID != 1 {
			t.Errorf("event %+v: want complete midas event on pid 1", ev)
		}
		byName[ev.Name] = ev
	}
	if byName["detect"].Args["slices"] != "3" {
		t.Errorf("detect args = %v", byName["detect"].Args)
	}
	if byName["framework/run"].Args["rounds"] != "1" {
		t.Errorf("run args = %v", byName["framework/run"].Args)
	}
	// The child nests inside the parent, so they share a display lane.
	if byName["detect"].TID != byName["framework/run"].TID {
		t.Errorf("child lane %d != parent lane %d, nested spans should share",
			byName["detect"].TID, byName["framework/run"].TID)
	}
}

func TestTracerConcurrentChildrenSpreadLanes(t *testing.T) {
	tr := NewTracer()
	ctx, root := tr.StartSpan(context.Background(), "round")
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, s := StartSpan(ctx, "worker")
			time.Sleep(5 * time.Millisecond) // force overlap
			s.End()
		}()
	}
	close(start)
	wg.Wait()
	root.End()

	events := decodeTrace(t, tr)
	if len(events) != 5 {
		t.Fatalf("events = %d, want 5", len(events))
	}
	// Overlapping siblings must not share a lane with each other, and a
	// lane holding a worker may hold the root only by containment.
	lanes := map[int][]chromeEvent{}
	for _, ev := range events {
		for _, prev := range lanes[ev.TID] {
			disjoint := ev.TS >= prev.TS+prev.Dur || prev.TS >= ev.TS+ev.Dur
			contains := (prev.TS <= ev.TS && ev.TS+ev.Dur <= prev.TS+prev.Dur) ||
				(ev.TS <= prev.TS && prev.TS+prev.Dur <= ev.TS+ev.Dur)
			if !disjoint && !contains {
				t.Errorf("lane %d holds partially-overlapping spans %q and %q", ev.TID, prev.Name, ev.Name)
			}
		}
		lanes[ev.TID] = append(lanes[ev.TID], ev)
	}
}

func TestTracerNilSafety(t *testing.T) {
	var tr *Tracer
	ctx, s := tr.StartSpan(context.Background(), "x")
	s.Arg("k", "v").End()
	if s != nil {
		t.Error("nil tracer should return nil span")
	}
	if got := SpanFromContext(ctx); got != nil {
		t.Errorf("nil span should not enter the context, got %v", got)
	}
	// Package-level StartSpan without a span in ctx is a no-op.
	_, s2 := StartSpan(context.Background(), "y")
	s2.End()
	if tr.Len() != 0 {
		t.Errorf("nil tracer Len = %d", tr.Len())
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("traceEvents")) {
		t.Errorf("nil tracer should still write an empty trace document, got %s", buf.String())
	}
}

func TestTracerOrDefault(t *testing.T) {
	prev := DefaultTracer()
	defer SetDefaultTracer(prev)

	SetDefaultTracer(nil)
	var nilT *Tracer
	if nilT.OrDefault() != nil {
		t.Error("OrDefault with no default should stay nil")
	}
	d := NewTracer()
	SetDefaultTracer(d)
	if nilT.OrDefault() != d {
		t.Error("OrDefault should fall back to the default tracer")
	}
	if d.OrDefault() != d {
		t.Error("OrDefault on a non-nil tracer should return itself")
	}
}

func TestTracerWriteFile(t *testing.T) {
	tr := NewTracer()
	_, s := tr.StartSpan(context.Background(), "phase")
	s.End()
	path := t.TempDir() + "/trace.json"
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("empty trace output")
	}
}

// TestRootSampling: with SetRootSampling(n), only every nth root span
// is recorded, and the children of a sampled-out root are dropped with
// it (the context carries no span, so they never start).
func TestRootSampling(t *testing.T) {
	tr := NewTracer()
	tr.SetRootSampling(3)
	for i := 0; i < 9; i++ {
		ctx, root := tr.StartSpan(context.Background(), "root")
		_, child := StartSpan(ctx, "child")
		child.End()
		root.End()
	}
	// 3 sampled roots, each with its child.
	if tr.Len() != 6 {
		t.Fatalf("Len = %d, want 6 (3 roots + 3 children)", tr.Len())
	}
	// n <= 1 keeps everything; nil tracer is a no-op.
	tr2 := NewTracer()
	tr2.SetRootSampling(1)
	for i := 0; i < 4; i++ {
		_, s := tr2.StartSpan(context.Background(), "root")
		s.End()
	}
	if tr2.Len() != 4 {
		t.Fatalf("Len = %d, want 4 with sampling 1", tr2.Len())
	}
	var nilTr *Tracer
	nilTr.SetRootSampling(5)
}

// TestStartSpanOrRoot: child of the ctx span when one exists, root on
// the default tracer otherwise.
func TestStartSpanOrRoot(t *testing.T) {
	old := DefaultTracer()
	defer SetDefaultTracer(old)

	tr := NewTracer()
	SetDefaultTracer(tr)
	_, s := StartSpanOrRoot(context.Background(), "load")
	s.End()
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1 root span on the default tracer", tr.Len())
	}

	ctxTr := NewTracer()
	ctx, root := ctxTr.StartSpan(context.Background(), "parent")
	_, child := StartSpanOrRoot(ctx, "load")
	child.End()
	root.End()
	if ctxTr.Len() != 2 {
		t.Fatalf("Len = %d, want 2 on the ctx tracer", ctxTr.Len())
	}
	if tr.Len() != 1 {
		t.Fatalf("default tracer Len = %d, want 1 (untouched by child path)", tr.Len())
	}
}

// TestTraceIDs: every descendant of one root shares the root's ID as
// its trace ID, and separate roots get separate traces.
func TestTraceIDs(t *testing.T) {
	tr := NewTracer()
	ctx, root := tr.StartSpan(context.Background(), "request")
	cctx, child := tr.StartSpan(ctx, "framework/run")
	_, grand := tr.StartSpan(cctx, "detect")
	if root.TraceID() != root.ID() {
		t.Errorf("root trace = %d, want its own id %d", root.TraceID(), root.ID())
	}
	if child.TraceID() != root.ID() || grand.TraceID() != root.ID() {
		t.Errorf("descendants trace = %d/%d, want %d", child.TraceID(), grand.TraceID(), root.ID())
	}
	_, other := tr.StartSpan(context.Background(), "request")
	if other.TraceID() == root.TraceID() {
		t.Error("independent roots share a trace ID")
	}
	var nilSpan *Span
	if nilSpan.ID() != 0 || nilSpan.TraceID() != 0 {
		t.Error("nil span should have zero IDs")
	}
}

func TestTakeTrace(t *testing.T) {
	tr := NewTracer()
	ctx, root := tr.StartSpan(context.Background(), "request")
	_, child := tr.StartSpan(ctx, "framework/run")
	child.Arg("depth", "02").End()
	root.End()
	_, bystander := tr.StartSpan(context.Background(), "other")
	bystander.End()

	recs := tr.TakeTrace(root.TraceID())
	if len(recs) != 2 {
		t.Fatalf("TakeTrace returned %d spans, want 2", len(recs))
	}
	// Completion order: child ended first.
	if recs[0].Name != "framework/run" || recs[0].Parent != root.ID() || recs[0].Args["depth"] != "02" {
		t.Errorf("recs[0] = %+v", recs[0])
	}
	if recs[1].Name != "request" || recs[1].Parent != 0 || recs[1].Trace != root.ID() {
		t.Errorf("recs[1] = %+v", recs[1])
	}
	// Taken spans are removed; the bystander trace remains.
	if tr.Len() != 1 {
		t.Errorf("Len after take = %d, want 1", tr.Len())
	}
	if again := tr.TakeTrace(root.TraceID()); again != nil {
		t.Errorf("second take returned %d spans, want nil", len(again))
	}
	if tr.TakeTrace(0) != nil {
		t.Error("TakeTrace(0) should return nil")
	}
	var nilTr *Tracer
	if nilTr.TakeTrace(1) != nil {
		t.Error("nil tracer TakeTrace should return nil")
	}
}

// TestSpanRetention: with a cap set, the oldest completed spans age
// out. Across many wraps of the cap the tracer keeps exactly the newest
// spans in completion order, takes and exports only those, and holds a
// bounded number of slots for them.
func TestSpanRetention(t *testing.T) {
	const max = 8
	tr := NewTracer()
	tr.SetRetention(max)
	var ids []int64
	for i := 0; i < 100; i++ {
		_, s := tr.StartSpan(context.Background(), "request")
		s.End()
		ids = append(ids, s.TraceID())
		if want := min(i+1, max); tr.Len() != want {
			t.Fatalf("after %d spans Len = %d, want %d", i+1, tr.Len(), want)
		}
		if slots := len(tr.events); slots > max+max/8+1 {
			t.Fatalf("after %d spans the tracer holds %d slots for %d spans", i+1, slots, max)
		}
	}
	if evs := decodeTrace(t, tr); len(evs) != max {
		t.Fatalf("export has %d events, want %d", len(evs), max)
	}
	if recs := tr.TakeTrace(ids[len(ids)-max-1]); recs != nil {
		t.Errorf("an aged-out trace returned %d spans", len(recs))
	}
	// Every survivor is still there.
	for k, id := range ids[len(ids)-max:] {
		recs := tr.TakeTrace(id)
		if len(recs) != 1 || recs[0].ID != id {
			t.Fatalf("survivor %d (trace %d): took %+v", k, id, recs)
		}
		if tr.Len() != max-k-1 {
			t.Fatalf("Len after taking %d survivors = %d", k+1, tr.Len())
		}
	}
	for i := 0; i < 3*max; i++ {
		_, s := tr.StartSpan(context.Background(), "request")
		s.End()
	}
	if tr.Len() != max {
		t.Errorf("Len after refilling = %d, want %d", tr.Len(), max)
	}
	var nilTr *Tracer
	nilTr.SetRetention(5) // no-op
}

// BenchmarkSpanEndAtRetention is End on a tracer already holding its
// retention cap of spans, the steady state of a long-lived server.
func BenchmarkSpanEndAtRetention(b *testing.B) {
	const max = 1 << 17
	tr := NewTracer()
	tr.SetRetention(max)
	for i := 0; i < max; i++ {
		_, s := tr.StartSpan(context.Background(), "request")
		s.End()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, s := tr.StartSpan(context.Background(), "request")
		s.End()
	}
}
