package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestLogger(t *testing.T, w io.Writer, level, format string) *slog.Logger {
	t.Helper()
	l, err := NewLogger(w, level, format)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// decode parses one JSON record, failing the test if it is not one.
func decode(t *testing.T, line []byte) map[string]any {
	t.Helper()
	var rec map[string]any
	if err := json.Unmarshal(line, &rec); err != nil {
		t.Fatalf("record is not valid JSON: %v\n%s", err, line)
	}
	return rec
}

// tracedContext returns a context under a child span of a root span,
// carrying two rounds of log fields.
func tracedContext() (ctx context.Context, root, child *Span) {
	tr := NewTracer()
	ctx, root = tr.StartSpan(context.Background(), "request")
	ctx, child = tr.StartSpan(ctx, "framework/run")
	ctx = ContextWithLogFields(ctx, "request", "000007", "session", "alpha")
	ctx = ContextWithLogFields(ctx, "job", 3)
	return ctx, root, child
}

// TestLoggerLogfmtEncoding: format "logfmt" selects slog's text
// encoding, and the context's span IDs and fields follow the call's.
func TestLoggerLogfmtEncoding(t *testing.T) {
	var buf bytes.Buffer
	l := newTestLogger(t, &buf, "debug", "logfmt")
	ctx, root, child := tracedContext()
	l.InfoContext(ctx, "job started", "dur", 150*time.Millisecond)
	line := strings.TrimSuffix(buf.String(), "\n")
	ts, rest, _ := strings.Cut(line, " ")
	if !strings.HasPrefix(ts, "time=") {
		t.Errorf("record does not open with time: %q", line)
	}
	want := `level=INFO msg="job started" dur=150ms trace=` + FormatTraceID(root.ID()) +
		` span=` + FormatTraceID(child.ID()) + ` request=000007 session=alpha job=3`
	if rest != want {
		t.Errorf("record:\ngot  %q\nwant %q", rest, want)
	}
}

// TestLoggerJSONEncoding pins the record shape the README documents and
// CI's jq checks read: slog's keys, then bound, call, span, and context
// fields in that order.
func TestLoggerJSONEncoding(t *testing.T) {
	var buf bytes.Buffer
	l := newTestLogger(t, &buf, "debug", "json").With("component", "serve")
	ctx, _, _ := tracedContext()
	l.ErrorContext(ctx, "job finished", "dur", 150*time.Millisecond)
	line := buf.Bytes()
	rec := decode(t, line)
	if rec["level"] != "ERROR" || rec["msg"] != "job finished" || rec["dur"] != float64(150*time.Millisecond) {
		t.Errorf("decoded record = %v", rec)
	}
	if _, err := time.Parse(time.RFC3339Nano, rec["time"].(string)); err != nil {
		t.Errorf("time field: %v", err)
	}
	order := []string{`{"time":`, `"level":`, `"msg":`, `"component":`, `"dur":`, `"trace":`, `"span":`, `"request":`, `"session":`, `"job":`}
	at := 0
	for _, key := range order {
		i := bytes.Index(line[at:], []byte(key))
		if i < 0 {
			t.Fatalf("field %s missing or out of order: %s", key, line)
		}
		at += i
	}
}

func TestLoggerLevelFiltering(t *testing.T) {
	var buf bytes.Buffer
	l := newTestLogger(t, &buf, "warn", "logfmt")
	l.Debug("nope")
	l.Info("nope")
	l.Warn("yes")
	l.Error("yes")
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Errorf("records written = %d, want 2:\n%s", got, buf.String())
	}
	buf.Reset()
	for _, level := range []string{"off", "none", "OFF"} {
		off := newTestLogger(t, &buf, level, "json")
		off.Log(context.Background(), slog.LevelError+100, "nope")
		off.Error("nope")
		if off.Enabled(context.Background(), slog.LevelError) || buf.Len() != 0 {
			t.Errorf("level %q still wrote: %q", level, buf.String())
		}
	}
}

// TestLoggerNilSafety: a nil logger resolves to the process-wide one,
// which is never nil, so call sites log unconditionally.
func TestLoggerNilSafety(t *testing.T) {
	def := LoggerOrDefault(nil)
	if def == nil || def != DefaultLogger() {
		t.Fatalf("LoggerOrDefault(nil) = %v, want the default logger", def)
	}
	def.InfoContext(context.Background(), "into the void", "k", "v")
	own := newTestLogger(t, io.Discard, "info", "json")
	if LoggerOrDefault(own) != own {
		t.Error("LoggerOrDefault replaced a non-nil logger")
	}
}

// TestLoggerDefaultInstall: the process-wide logger writes nothing
// until ConfigureLogging runs, and a caller holding no logger of its
// own picks up the configured one.
func TestLoggerDefaultInstall(t *testing.T) {
	if DefaultLogger().Enabled(context.Background(), slog.LevelError) {
		t.Fatal("default logger is enabled before ConfigureLogging")
	}
	var buf bytes.Buffer
	if err := ConfigureLogging(&buf, "info", "json"); err != nil {
		t.Fatal(err)
	}
	defer ConfigureLogging(io.Discard, "off", "logfmt")
	LoggerOrDefault(nil).Info("via default")
	if rec := decode(t, buf.Bytes()); rec["msg"] != "via default" {
		t.Errorf("default logger did not receive the record: %q", buf.String())
	}
	if err := ConfigureLogging(&buf, "loud", "json"); err == nil {
		t.Error("ConfigureLogging accepted an unknown level")
	}
	if !DefaultLogger().Enabled(context.Background(), slog.LevelInfo) {
		t.Error("a rejected ConfigureLogging replaced the installed logger")
	}
}

// TestLoggerWithAndContextFields: attributes bound with With and groups
// opened with WithGroup survive the context wrapper, and the context
// fields still attach after them.
func TestLoggerWithAndContextFields(t *testing.T) {
	var buf bytes.Buffer
	l := newTestLogger(t, &buf, "debug", "json").With("component", "serve")
	ctx := ContextWithLogFields(context.Background(), "request", "000007")
	l.With("session", "alpha").InfoContext(ctx, "session created", "cached", false)
	rec := decode(t, buf.Bytes())
	if rec["component"] != "serve" || rec["session"] != "alpha" || rec["request"] != "000007" || rec["cached"] != false {
		t.Errorf("record = %v", rec)
	}
	if _, ok := rec["trace"]; ok {
		t.Errorf("trace attached without a span in the context: %v", rec)
	}
	buf.Reset()
	l.WithGroup("g").InfoContext(ctx, "grouped", "k", "v")
	rec = decode(t, buf.Bytes())
	if g, _ := rec["g"].(map[string]any); g["k"] != "v" || g["request"] != "000007" || rec["component"] != "serve" {
		t.Errorf("grouped record = %v", rec)
	}
}

// TestLoggerSpanCorrelation: trace is the root span's ID and span the
// current span's, rendered as FormatTraceID renders them.
func TestLoggerSpanCorrelation(t *testing.T) {
	var buf bytes.Buffer
	l := newTestLogger(t, &buf, "debug", "json")
	ctx, root, child := tracedContext()
	l.InfoContext(ctx, "round done")
	child.End()
	root.End()
	rec := decode(t, buf.Bytes())
	if rec["trace"] != FormatTraceID(root.ID()) {
		t.Errorf("trace field = %v, want root id %s", rec["trace"], FormatTraceID(root.ID()))
	}
	if rec["span"] != FormatTraceID(child.ID()) {
		t.Errorf("span field = %v, want current span id %s", rec["span"], FormatTraceID(child.ID()))
	}
	if rec["request"] != "000007" || rec["session"] != "alpha" || rec["job"] != float64(3) {
		t.Errorf("context fields = %v", rec)
	}
}

func TestParseLevelAndFormat(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "warn": slog.LevelWarn,
		"warning": slog.LevelWarn, "error": slog.LevelError, "ERROR": slog.LevelError,
		"off": levelOff, "none": levelOff,
	} {
		got, err := parseLevel(in)
		if err != nil || got != want {
			t.Errorf("parseLevel(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parseLevel("verbose"); err == nil {
		t.Error("parseLevel should reject unknown levels")
	}
	for _, format := range []string{"logfmt", "", "json"} {
		if _, err := NewLogger(io.Discard, "info", format); err != nil {
			t.Errorf("NewLogger format %q: %v", format, err)
		}
	}
	if _, err := NewLogger(io.Discard, "info", "xml"); err == nil {
		t.Error("NewLogger should reject unknown formats")
	}
	if _, err := NewLogger(io.Discard, "nope", "json"); err == nil {
		t.Error("NewLogger should reject unknown levels")
	}
}

// TestLoggerConcurrent hammers one logger from many goroutines; under
// -race this proves the wrapper adds no shared state, and every line
// must stay intact (no interleaving) and valid JSON.
func TestLoggerConcurrent(t *testing.T) {
	var buf bytes.Buffer
	l := newTestLogger(t, &buf, "debug", "json")
	ctx, _, _ := tracedContext()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gctx := ContextWithLogFields(ctx, "g", g)
			for i := 0; i < 50; i++ {
				l.InfoContext(gctx, "tick", "i", i)
			}
		}(g)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 8*50 {
		t.Fatalf("line count = %d, want %d", len(lines), 8*50)
	}
	for _, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Fatalf("interleaved or corrupt record: %q", line)
		}
	}
}
