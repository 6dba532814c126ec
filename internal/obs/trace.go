package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer collects spans — named, timed, parented intervals — from a
// pipeline run and exports them as Chrome trace-event JSON, loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Like the rest of this package it is dependency-free, goroutine-safe,
// and nil-tolerant: a nil *Tracer records nothing and costs nothing, so
// instrumented code starts spans unconditionally. Spans propagate
// through context (ContextWithSpan / StartSpan), which is how the
// framework's worker goroutines parent their per-source spans to the
// round that dispatched them.
type Tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	// sampleN keeps 1 of every sampleN root spans (≤1 keeps all);
	// rootSeen counts root-span starts for the modulus.
	sampleN  atomic.Int64
	rootSeen atomic.Int64
	// retain bounds the retained spans; ≤0 keeps everything (batch runs
	// that export one trace at exit). Long-lived servers set it so
	// untaken traces age out instead of growing without bound.
	retain atomic.Int64
	mu     sync.Mutex
	// events[head:] are the retained completed spans in completion
	// order; events[:head] are aged-out slots (zeroed) that End reclaims
	// in one copy once they outnumber an eighth of the cap.
	events []spanEvent
	head   int
}

// spanEvent is one completed span. Times are offsets from the tracer's
// epoch, so exports are stable regardless of wall-clock adjustments
// mid-run.
type spanEvent struct {
	id     int64
	parent int64 // 0 = root
	trace  int64 // id of the root span of this span's tree
	name   string
	start  time.Duration
	dur    time.Duration
	args   []spanArg
}

// spanArg is one key/value annotation. Spans carry them as a slice,
// not a map: a server retains up to its retention cap of spans, and a
// one-entry map costs ten times the slice.
type spanArg struct{ key, value string }

// argMap returns args as the map SpanRecord and the Chrome export
// carry, nil when there are none.
func argMap(args []spanArg) map[string]string {
	if len(args) == 0 {
		return nil
	}
	m := make(map[string]string, len(args))
	for _, a := range args {
		m[a.key] = a.value
	}
	return m
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now()}
}

// defaultTracer is the process-wide tracer, nil (disabled) unless a
// binary enables it for a -trace run.
var defaultTracer atomic.Pointer[Tracer]

// DefaultTracer returns the process-wide tracer, or nil when tracing is
// disabled (the default). Instrumented packages fall back to it the way
// they fall back to the Default registry.
func DefaultTracer() *Tracer { return defaultTracer.Load() }

// SetDefaultTracer installs t as the process-wide tracer (nil disables).
func SetDefaultTracer(t *Tracer) { defaultTracer.Store(t) }

// OrDefault returns t, or the process-wide default tracer when t is nil
// (which may itself be nil, i.e. tracing disabled).
func (t *Tracer) OrDefault() *Tracer {
	if t == nil {
		return DefaultTracer()
	}
	return t
}

// Span is one in-flight interval. A Span is owned by the goroutine that
// started it: Arg and End are not for concurrent use on the same span,
// but any number of goroutines may start child spans concurrently.
type Span struct {
	t      *Tracer
	id     int64
	parent int64
	trace  int64
	name   string
	start  time.Duration
	args   []spanArg
}

// ID returns the span's identifier, unique within its tracer (0 on a
// nil span).
func (s *Span) ID() int64 {
	if s == nil {
		return 0
	}
	return s.id
}

// TraceID identifies the span tree: every descendant of one root span
// shares the root's ID here (0 on a nil span). The serving path logs it
// on every line and keys TakeTrace with it.
func (s *Span) TraceID() int64 {
	if s == nil {
		return 0
	}
	return s.trace
}

type spanKey struct{}

// ContextWithSpan returns a context carrying s as the current span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFromContext returns the current span, or nil if none.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// StartSpan starts a span on t, parented to the current span of ctx (a
// root span when ctx has none), and returns the derived context carrying
// the new span. On a nil tracer it returns ctx unchanged and a nil span
// whose methods no-op.
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	var parent, trace int64
	if p := SpanFromContext(ctx); p != nil && p.t == t {
		parent, trace = p.id, p.trace
	}
	if parent == 0 {
		if n := t.sampleN.Load(); n > 1 && (t.rootSeen.Add(1)-1)%n != 0 {
			// Sampled out: no span enters the context, so the root's
			// would-be children (which parent through ctx) are dropped
			// with it and the trace stays internally consistent.
			return ctx, nil
		}
	}
	s := &Span{
		t:      t,
		id:     t.nextID.Add(1),
		parent: parent,
		trace:  trace,
		name:   name,
		start:  time.Since(t.epoch),
	}
	if s.trace == 0 {
		s.trace = s.id
	}
	return ContextWithSpan(ctx, s), s
}

// StartSpan starts a child of the current span of ctx, on that span's
// tracer. Without a span in ctx it is a no-op — this is what lets
// instrumented packages trace unconditionally while tracing stays free
// when no binary enabled it.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	p := SpanFromContext(ctx)
	if p == nil {
		return ctx, nil
	}
	return p.t.StartSpan(ctx, name)
}

// StartSpanOrRoot starts a child of the current span of ctx, or — when
// ctx carries none — a root span on the default tracer. Bulk operations
// outside the pipeline (KB loads, evaluation scoring) use it so a
// -trace run records them whether or not a pipeline span is active; it
// stays free when tracing is disabled.
func StartSpanOrRoot(ctx context.Context, name string) (context.Context, *Span) {
	if p := SpanFromContext(ctx); p != nil {
		return p.t.StartSpan(ctx, name)
	}
	return DefaultTracer().StartSpan(ctx, name)
}

// SetRootSampling keeps 1 of every n root spans (and, transitively,
// only their descendants), bounding trace size on long runs such as
// `midas-bench -exp all`; n ≤ 1 keeps every span. Safe to call
// concurrently with tracing.
func (t *Tracer) SetRootSampling(n int) {
	if t == nil {
		return
	}
	t.sampleN.Store(int64(n))
}

// Arg attaches a key/value annotation, shown in the Perfetto span
// details pane. Returns s for chaining; no-op on a nil span.
func (s *Span) Arg(key, value string) *Span {
	if s == nil {
		return nil
	}
	for i := range s.args {
		if s.args[i].key == key {
			s.args[i].value = value
			return s
		}
	}
	s.args = append(s.args, spanArg{key, value})
	return s
}

// End completes the span and records it on the tracer. No-op on a nil
// span; calling End twice records the span twice (don't).
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.t
	ev := spanEvent{
		id:     s.id,
		parent: s.parent,
		trace:  s.trace,
		name:   s.name,
		start:  s.start,
		dur:    time.Since(t.epoch) - s.start,
		args:   s.args,
	}
	max := int(t.retain.Load())
	t.mu.Lock()
	t.events = append(t.events, ev)
	if drop := len(t.events) - t.head - max; max > 0 && drop > 0 {
		// Age out the oldest completed spans; their traces become
		// partial, which profile consumers tolerate. Moving head keeps
		// End O(1) at the cap: the retained window is copied down only
		// once per max/8 aged-out spans, not on every End.
		clear(t.events[t.head : t.head+drop])
		t.head += drop
		if t.head > max/8 {
			n := copy(t.events, t.events[t.head:])
			clear(t.events[n:])
			t.events, t.head = t.events[:n], 0
		}
	}
	t.mu.Unlock()
}

// SetRetention bounds the number of completed spans the tracer retains;
// once exceeded, the oldest are discarded. Long-lived servers (which
// trace every request but only fold discovery traces into profiles) set
// it so abandoned traces age out. n ≤ 0 retains everything — the batch
// default, where the whole trace is exported at exit. Safe to call
// concurrently with tracing.
func (t *Tracer) SetRetention(n int) {
	if t == nil {
		return
	}
	t.retain.Store(int64(n))
}

// SpanRecord is one completed span as handed to trace consumers:
// identifiers, interval (offsets from the tracer's epoch), and
// annotations.
type SpanRecord struct {
	ID       int64
	Parent   int64 // 0 = root
	Trace    int64
	Name     string
	Start    time.Duration
	Duration time.Duration
	Args     map[string]string
}

// TakeTrace removes and returns every completed span of the given trace
// (the ID shared by a root span and all its descendants), in completion
// order. Taking a trace is how the serving path folds a finished job's
// spans into its profile while keeping the tracer's memory bounded:
// once taken, the spans no longer appear in Chrome-trace exports. An
// unknown or already-taken trace returns nil. Spans still in flight are
// not included — callers take a trace only after its root has ended.
func (t *Tracer) TakeTrace(traceID int64) []SpanRecord {
	if t == nil || traceID == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []SpanRecord
	kept := t.events[:0]
	for _, ev := range t.events[t.head:] {
		if ev.trace != traceID {
			kept = append(kept, ev)
			continue
		}
		out = append(out, SpanRecord{
			ID: ev.id, Parent: ev.parent, Trace: ev.trace, Name: ev.name,
			Start: ev.start, Duration: ev.dur, Args: argMap(ev.args),
		})
	}
	clear(t.events[len(kept):])
	t.events, t.head = kept, 0
	return out
}

// Len returns the number of completed spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events) - t.head
}

// chromeEvent is one trace event in the Chrome trace-event format
// ("X" = complete event with duration; timestamps in microseconds).
type chromeEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat"`
	Phase string            `json:"ph"`
	TS    float64           `json:"ts"`
	Dur   float64           `json:"dur"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Args  map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace writes every completed span as Chrome trace-event
// JSON ({"traceEvents": [...]}). Spans are laid out onto display lanes
// (trace "threads") so that two spans share a lane only when their
// intervals nest or are disjoint — Perfetto renders containment as
// nesting, so parent/child spans stack while concurrent workers spread
// across lanes. No-op (empty trace) on a nil tracer.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	var events []spanEvent
	if t != nil {
		t.mu.Lock()
		events = append(events, t.events[t.head:]...)
		t.mu.Unlock()
	}

	// Deterministic layout order: by start time, longer spans first on
	// ties so parents are placed before the children they contain.
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].start != events[j].start {
			return events[i].start < events[j].start
		}
		if events[i].dur != events[j].dur {
			return events[i].dur > events[j].dur
		}
		return events[i].id < events[j].id
	})

	laneOf := make(map[int64]int, len(events))
	type interval struct{ start, end time.Duration }
	var lanes [][]interval
	fits := func(lane []interval, start, end time.Duration) bool {
		for _, iv := range lane {
			disjoint := end <= iv.start || iv.end <= start
			contains := (iv.start <= start && end <= iv.end) || (start <= iv.start && iv.end <= end)
			if !disjoint && !contains {
				return false
			}
		}
		return true
	}
	out := make([]chromeEvent, 0, len(events))
	for _, ev := range events {
		start, end := ev.start, ev.start+ev.dur
		lane := -1
		// Prefer the parent's lane (nests under it), then any lane the
		// span fits, then a fresh lane.
		if pl, ok := laneOf[ev.parent]; ok && fits(lanes[pl], start, end) {
			lane = pl
		} else {
			for i := range lanes {
				if fits(lanes[i], start, end) {
					lane = i
					break
				}
			}
		}
		if lane < 0 {
			lanes = append(lanes, nil)
			lane = len(lanes) - 1
		}
		lanes[lane] = append(lanes[lane], interval{start, end})
		laneOf[ev.id] = lane
		out = append(out, chromeEvent{
			Name:  ev.name,
			Cat:   "midas",
			Phase: "X",
			TS:    float64(ev.start.Microseconds()),
			Dur:   float64(ev.dur) / float64(time.Microsecond),
			PID:   1,
			TID:   lane + 1,
			Args:  argMap(ev.args),
		})
	}

	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")
	for i, ev := range out {
		if i > 0 {
			fmt.Fprint(bw, ",\n")
		}
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		bw.Write(b)
	}
	fmt.Fprint(bw, "]}\n")
	return bw.Flush()
}

// WriteFile writes the Chrome trace to path, creating or truncating it.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = t.WriteChromeTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
