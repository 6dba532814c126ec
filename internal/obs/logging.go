package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"strings"
	"sync/atomic"
)

// levelOff sits above every slog level, so a logger at it writes
// nothing.
const levelOff = slog.Level(math.MaxInt)

// parseLevel parses a log level: whatever slog.Level's UnmarshalText
// accepts (debug, info, warn, error in any case), plus "warning" for
// warn and "off" or "none" for levelOff.
func parseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "off", "none":
		return levelOff, nil
	case "warning":
		return slog.LevelWarn, nil
	}
	var l slog.Level
	if err := l.UnmarshalText([]byte(s)); err != nil {
		return 0, fmt.Errorf("unknown log level %q (want debug|info|warn|error|off)", s)
	}
	return l, nil
}

// NewLogger returns a logger writing records at or above level to w,
// encoded by slog's TextHandler (format "logfmt" or "") or JSONHandler
// ("json"). Every record also carries what its context holds: trace and
// span IDs when the context carries a Span, then the fields stored by
// ContextWithLogFields.
func NewLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	lv, err := parseLevel(level)
	if err != nil {
		return nil, err
	}
	opts := &slog.HandlerOptions{Level: lv}
	var h slog.Handler
	switch format {
	case "logfmt", "":
		h = slog.NewTextHandler(w, opts)
	case "json":
		h = slog.NewJSONHandler(w, opts)
	default:
		return nil, fmt.Errorf("unknown log format %q (want logfmt|json)", format)
	}
	return slog.New(contextHandler{h}), nil
}

// contextHandler appends the context's span IDs and log fields to each
// record before the wrapped handler encodes it.
type contextHandler struct{ slog.Handler }

func (h contextHandler) Handle(ctx context.Context, r slog.Record) error {
	if s := SpanFromContext(ctx); s != nil {
		r.AddAttrs(slog.String("trace", FormatTraceID(s.TraceID())), slog.String("span", FormatTraceID(s.ID())))
	}
	if kv, _ := ctx.Value(logFieldsKey{}).([]any); len(kv) > 0 {
		r.Add(kv...)
	}
	return h.Handler.Handle(ctx, r)
}

func (h contextHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return contextHandler{h.Handler.WithAttrs(attrs)}
}

func (h contextHandler) WithGroup(name string) slog.Handler {
	return contextHandler{h.Handler.WithGroup(name)}
}

type logFieldsKey struct{}

// ContextWithLogFields returns a context carrying the key/value pairs;
// every record written under it attaches them, after any fields already
// carried. This is how request, job, and session IDs reach each log
// line of the serving path.
func ContextWithLogFields(ctx context.Context, kv ...any) context.Context {
	if len(kv) == 0 {
		return ctx
	}
	prev, _ := ctx.Value(logFieldsKey{}).([]any)
	return context.WithValue(ctx, logFieldsKey{}, append(prev[:len(prev):len(prev)], kv...))
}

// FormatTraceID renders a trace (or span) ID exactly as log records
// carry it — fixed-width hex — so API responses and log lines
// cross-reference verbatim.
func FormatTraceID(id int64) string { return fmt.Sprintf("%08x", uint64(id)) }

// defaultLogger is the process-wide logger. It writes nothing until
// ConfigureLogging installs one; unlike slog.SetDefault, that leaves
// slog.Default and package log untouched.
var defaultLogger atomic.Pointer[slog.Logger]

func init() {
	defaultLogger.Store(slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: levelOff})))
}

// DefaultLogger returns the process-wide logger; never nil.
func DefaultLogger() *slog.Logger { return defaultLogger.Load() }

// LoggerOrDefault returns l, or the process-wide logger when l is nil.
// Callers resolve it per record, so a logger configured after they were
// built is still picked up.
func LoggerOrDefault(l *slog.Logger) *slog.Logger {
	if l == nil {
		return DefaultLogger()
	}
	return l
}

// ConfigureLogging installs NewLogger(w, level, format) as the
// process-wide logger; level "off" disables it again.
func ConfigureLogging(w io.Writer, level, format string) error {
	l, err := NewLogger(w, level, format)
	if err != nil {
		return err
	}
	defaultLogger.Store(l)
	return nil
}
