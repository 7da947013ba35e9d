// Package olog is the repo's leveled, structured (key=value) logger.
// Every line is one logfmt-style record; when the context carries an
// active trace span (see internal/obs/trace), the line is automatically
// stamped with trace= and span= so an operator can jump from a log line
// (e.g. the auditor's slow-request log) to the full trace in
// /debug/traces.
//
// Like the rest of internal/obs, a nil *Logger is a valid no-op sink,
// so call sites never guard logging behind a flag check.
package olog

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	otrace "repro/internal/obs/trace"
)

// Level is a log severity.
type Level int8

// Severities, in increasing order.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
)

// String renders the level the way it appears in the level= field.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	default:
		return fmt.Sprintf("level(%d)", int8(l))
	}
}

// Logger writes logfmt lines at or above a minimum level. Safe for
// concurrent use; derived loggers (With) share the writer and its lock.
type Logger struct {
	mu    *sync.Mutex
	w     io.Writer
	min   Level
	clock obs.Clock
	base  string // pre-rendered " k=v" pairs appended to every line
}

// New creates a logger writing to w at min level and above. clock
// supplies the ts= stamps (obs.System when nil).
func New(w io.Writer, min Level, clock obs.Clock) *Logger {
	if clock == nil {
		clock = obs.System
	}
	return &Logger{mu: &sync.Mutex{}, w: w, min: min, clock: clock}
}

// With returns a derived logger whose lines carry the given key/value
// pairs after the trace stamp.
func (l *Logger) With(kv ...any) *Logger {
	if l == nil {
		return nil
	}
	var b strings.Builder
	appendPairs(&b, kv)
	d := *l
	d.base = l.base + b.String()
	return &d
}

// Enabled reports whether a line at lvl would be written.
func (l *Logger) Enabled(lvl Level) bool { return l != nil && lvl >= l.min }

// Debug logs at debug level. kv are alternating key/value pairs; values
// are rendered with fmt.Sprint and quoted when needed.
func (l *Logger) Debug(ctx context.Context, msg string, kv ...any) { l.log(ctx, LevelDebug, msg, kv) }

// Info logs at info level.
func (l *Logger) Info(ctx context.Context, msg string, kv ...any) { l.log(ctx, LevelInfo, msg, kv) }

// Warn logs at warn level.
func (l *Logger) Warn(ctx context.Context, msg string, kv ...any) { l.log(ctx, LevelWarn, msg, kv) }

func (l *Logger) log(ctx context.Context, lvl Level, msg string, kv []any) {
	if !l.Enabled(lvl) {
		return
	}
	var b strings.Builder
	b.WriteString("ts=")
	b.WriteString(l.clock.Now().UTC().Format(time.RFC3339Nano))
	b.WriteString(" level=")
	b.WriteString(lvl.String())
	b.WriteString(" msg=")
	b.WriteString(quote(msg))
	if sc := otrace.FromContext(ctx).Context(); sc.Valid() {
		b.WriteString(" trace=")
		b.WriteString(sc.TraceID.String())
		b.WriteString(" span=")
		b.WriteString(sc.SpanID.String())
	}
	b.WriteString(l.base)
	appendPairs(&b, kv)
	b.WriteByte('\n')

	l.mu.Lock()
	defer l.mu.Unlock()
	_, _ = io.WriteString(l.w, b.String())
}

// appendPairs renders alternating key/value pairs as " k=v". A trailing
// key without a value gets v="" so malformed calls still log.
func appendPairs(b *strings.Builder, kv []any) {
	for i := 0; i < len(kv); i += 2 {
		b.WriteByte(' ')
		b.WriteString(fmt.Sprint(kv[i]))
		b.WriteByte('=')
		if i+1 < len(kv) {
			b.WriteString(quote(fmt.Sprint(kv[i+1])))
		} else {
			b.WriteString(`""`)
		}
	}
}

// quote wraps a value in quotes only when logfmt needs it (spaces,
// quotes, equals signs, control characters or emptiness).
func quote(s string) string {
	if s == "" {
		return `""`
	}
	if strings.IndexFunc(s, func(r rune) bool {
		return r <= ' ' || r == '"' || r == '=' || r == 0x7f
	}) < 0 {
		return s
	}
	return strconv.Quote(s)
}
