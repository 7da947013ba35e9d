// Package trace is the repo's dependency-free distributed-tracing
// subsystem. One trace follows a single Proof-of-Alibi across the
// drone→auditor boundary: the drone client opens a root span per proof,
// child spans time the TEE signing work and the HTTP submission, the
// span context crosses the wire as a W3C-traceparent-style header, and
// the auditor continues the same trace through its verification stages
// down to the WAL commit.
//
// The design mirrors the obs metrics registry: a nil *Tracer (and a nil
// *Span) is a valid no-op everywhere, so instrumented code pays one
// pointer comparison when tracing is disabled; with a tracer configured
// but the sampling rate at zero, unsampled spans propagate trace
// identity without recording, keeping the hot-path overhead in the
// noise (see BenchmarkVerifyPipeline/traced-sampling-off).
//
// Finished spans are delivered to a Collector — in process, the bounded
// RingCollector, dumped over /debug/traces or exported as JSONL.
package trace

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// TraceID identifies one end-to-end trace (16 random bytes, hex on the
// wire — the W3C trace-id shape).
type TraceID [16]byte

// SpanID identifies one span within a trace (8 random bytes).
type SpanID [8]byte

// String renders the ID as lowercase hex.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports whether the ID is unset (all zero — invalid on the wire).
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the ID as lowercase hex.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports whether the ID is unset.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// ParseTraceID decodes a 32-hex-digit trace ID.
func ParseTraceID(s string) (TraceID, error) {
	var id TraceID
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != len(id) {
		return TraceID{}, fmt.Errorf("trace: bad trace id %q", s)
	}
	copy(id[:], raw)
	return id, nil
}

// ParseSpanID decodes a 16-hex-digit span ID.
func ParseSpanID(s string) (SpanID, error) {
	var id SpanID
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != len(id) {
		return SpanID{}, fmt.Errorf("trace: bad span id %q", s)
	}
	copy(id[:], raw)
	return id, nil
}

// SpanContext is the propagated identity of a span: what crosses process
// boundaries in the traceparent header.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	// Sampled records the root's sampling decision; children and remote
	// continuations inherit it, so a trace is recorded everywhere or
	// nowhere.
	Sampled bool
}

// Valid reports whether the context names a real span.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// headerVersion is the traceparent version field. Only version 00 is
// emitted or understood.
const headerVersion = "00"

// Header renders the context in the W3C traceparent shape:
// "00-<32 hex trace-id>-<16 hex span-id>-<2 hex flags>" (flags bit 0 =
// sampled). An invalid context renders as "".
func (sc SpanContext) Header() string {
	if !sc.Valid() {
		return ""
	}
	flags := "00"
	if sc.Sampled {
		flags = "01"
	}
	return headerVersion + "-" + sc.TraceID.String() + "-" + sc.SpanID.String() + "-" + flags
}

// ParseHeader decodes a traceparent-style header. It returns ok=false
// for an empty, malformed, unknown-version or all-zero header — callers
// then fall back to a local root decision.
func ParseHeader(h string) (SpanContext, bool) {
	// version(2) '-' trace(32) '-' span(16) '-' flags(2)
	if len(h) != 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return SpanContext{}, false
	}
	if h[:2] != headerVersion {
		return SpanContext{}, false
	}
	tid, err := ParseTraceID(h[3:35])
	if err != nil {
		return SpanContext{}, false
	}
	sid, err := ParseSpanID(h[36:52])
	if err != nil {
		return SpanContext{}, false
	}
	flags, err := strconv.ParseUint(h[53:55], 16, 8)
	if err != nil {
		return SpanContext{}, false
	}
	sc := SpanContext{TraceID: tid, SpanID: sid, Sampled: flags&1 != 0}
	if !sc.Valid() {
		return SpanContext{}, false
	}
	return sc, true
}

// Attr is one span attribute. Attributes are ordered (append order), so
// exported spans are deterministic.
type Attr struct {
	K string `json:"k"`
	V string `json:"v"`
}

// Event is one timestamped annotation on a span (e.g. "fsync (leader)"
// on a WAL-commit span).
type Event struct {
	Time time.Time `json:"time"`
	Msg  string    `json:"msg"`
}

// SpanRecord is a finished span in exportable form. IDs are hex strings
// so the record marshals directly to the /debug/traces JSONL shape.
type SpanRecord struct {
	TraceID string    `json:"traceId"`
	SpanID  string    `json:"spanId"`
	Parent  string    `json:"parentId,omitempty"`
	Name    string    `json:"name"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
	Attrs   []Attr    `json:"attrs,omitempty"`
	Events  []Event   `json:"events,omitempty"`
	Error   string    `json:"error,omitempty"`
}

// Collector receives finished spans. Collect must be safe for
// concurrent use; it is called synchronously from Span.End.
type Collector interface {
	Collect(SpanRecord)
}

// Options configures a Tracer.
type Options struct {
	// Sample is the root sampling rate in [0, 1]: the probability that a
	// trace *started here* (no remote parent) is recorded. Remote
	// parents carry their own decision, which is always honoured —
	// parent-based sampling — so a drone-sampled proof is recorded by an
	// auditor running with Sample 0.
	Sample float64
	// Clock supplies span timestamps (obs.System when nil).
	Clock obs.Clock
	// Rand supplies ID and sampling entropy (crypto/rand when nil; tests
	// inject a deterministic reader).
	Rand io.Reader
	// Sink receives finished sampled spans (nil discards them —
	// propagation-only tracing).
	Sink Collector
}

// Tracer creates spans. A nil *Tracer is a valid no-op: StartSpan
// returns the context unchanged and a nil span.
type Tracer struct {
	opts Options

	mu sync.Mutex // guards opts.Rand reads
}

// New creates a tracer. The zero Options value propagates nothing and
// records nothing (Sample 0, no sink).
func New(opts Options) *Tracer {
	if opts.Clock == nil {
		opts.Clock = obs.System
	}
	if opts.Rand == nil {
		opts.Rand = rand.Reader
	}
	if opts.Sample < 0 {
		opts.Sample = 0
	}
	if opts.Sample > 1 {
		opts.Sample = 1
	}
	return &Tracer{opts: opts}
}

// randBytes fills b from the tracer's entropy source.
func (t *Tracer) randBytes(b []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, err := io.ReadFull(t.opts.Rand, b); err != nil {
		// Entropy exhaustion must not fail the traced operation; a
		// zero-ish ID only degrades trace grouping.
		for i := range b {
			b[i] = byte(i + 1)
		}
	}
}

// sampleRoot draws the sampling decision for a locally started trace.
func (t *Tracer) sampleRoot() bool {
	switch {
	case t.opts.Sample <= 0:
		return false
	case t.opts.Sample >= 1:
		return true
	}
	var b [8]byte
	t.randBytes(b[:])
	return float64(binary.BigEndian.Uint64(b[:]))/float64(1<<63)/2 < t.opts.Sample
}

// StartSpan starts a span named name. If ctx already carries a span, the
// new one is its child in the same trace (inheriting the sampling
// decision); otherwise it is a new root sampled at the tracer's rate.
// The returned context carries the new span; End must be called to
// deliver it (nil-safe).
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	sc := SpanContext{}
	var parent SpanID
	if p := FromContext(ctx); p != nil && p.sc.Valid() {
		sc.TraceID = p.sc.TraceID
		sc.Sampled = p.sc.Sampled
		parent = p.sc.SpanID
	} else {
		t.randBytes(sc.TraceID[:])
		sc.Sampled = t.sampleRoot()
	}
	t.randBytes(sc.SpanID[:])
	s := &Span{tracer: t, sc: sc, parent: parent, name: name, start: t.opts.Clock.Now()}
	return ContextWithSpan(ctx, s), s
}

// StartRemote starts a span continuing the trace described by a
// traceparent-style header (as produced by SpanContext.Header). With an
// empty or malformed header it behaves exactly like StartSpan — a local
// root. The remote sampling decision is honoured either way.
func (t *Tracer) StartRemote(ctx context.Context, header, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if sc, ok := ParseHeader(header); ok {
		ctx = ContextWithSpan(ctx, &Span{sc: sc, noop: true})
	}
	return t.StartSpan(ctx, name)
}

// Span is one in-flight timed operation. All methods are safe on a nil
// receiver (the tracing-disabled path) and safe for concurrent use.
type Span struct {
	tracer *Tracer
	sc     SpanContext
	parent SpanID
	name   string
	start  time.Time
	// noop marks a propagation-only span (a remote parent placeholder):
	// it carries identity for children but is never recorded itself.
	noop bool

	mu     sync.Mutex
	attrs  []Attr
	events []Event
	errMsg string
	ended  bool
}

// Context returns the span's propagated identity (zero for nil).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// Recording reports whether the span will be delivered to a collector.
func (s *Span) Recording() bool {
	return s != nil && !s.noop && s.sc.Sampled && s.tracer != nil && s.tracer.opts.Sink != nil
}

// SetAttr attaches a key/value attribute.
func (s *Span) SetAttr(k, v string) {
	if !s.Recording() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attrs = append(s.attrs, Attr{K: k, V: v})
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(k string, v int64) { s.SetAttr(k, strconv.FormatInt(v, 10)) }

// Event records a timestamped annotation.
func (s *Span) Event(msg string) {
	if !s.Recording() {
		return
	}
	now := s.tracer.opts.Clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, Event{Time: now, Msg: msg})
}

// SetError marks the span failed. A nil error is ignored.
func (s *Span) SetError(err error) {
	if err == nil || !s.Recording() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.errMsg = err.Error()
}

// End finishes the span and delivers it to the tracer's collector.
// Calling End more than once delivers only the first.
func (s *Span) End() {
	if !s.Recording() {
		return
	}
	end := s.tracer.opts.Clock.Now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	rec := SpanRecord{
		TraceID: s.sc.TraceID.String(),
		SpanID:  s.sc.SpanID.String(),
		Name:    s.name,
		Start:   s.start,
		End:     end,
		Attrs:   s.attrs,
		Events:  s.events,
		Error:   s.errMsg,
	}
	if !s.parent.IsZero() {
		rec.Parent = s.parent.String()
	}
	s.mu.Unlock()
	s.tracer.opts.Sink.Collect(rec)
}

// ctxKey keys the active span in a context.Context.
type ctxKey struct{}

// ContextWithSpan returns ctx carrying s as the active span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the active span, or nil.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// HeaderFromContext renders the active span's traceparent header, or ""
// when the context carries no valid span — what HTTP clients inject.
func HeaderFromContext(ctx context.Context) string {
	return FromContext(ctx).Context().Header()
}
