// Package tracez is a lightweight, zero-dependency span tracer for
// campaign executions: causally nested spans (campaign → job →
// simulator phase) with wall-clock timing and typed attributes,
// serialised as JSON lines and exportable to the Chrome trace-event
// format (see chrome.go) for Perfetto.
//
// The design constraint is the repository's hot-path budget: with
// tracing disabled every instrumentation site must cost two context
// lookups at most and zero heap allocations. That is achieved by
// making every method nil-receiver safe — FromContext returns a nil
// *Tracer when no tracer is installed, Start on a nil tracer returns a
// nil *Span, and all Span methods no-op on nil — and by using typed
// attribute setters (SetStr/SetInt/...) instead of variadic ...any
// parameters, which would box arguments at the call site even when the
// span is nil. The disabled path is asserted alloc-free by
// TestTracingOffZeroAllocs and gated in scripts/check.sh.
//
// With a tracer, recording stays cheap: each setter encodes its
// attribute into the span's JSON object as it is called, and the
// tracer writes each finished span as one line to its sink. The same
// bytes feed a run directory's spans.jsonl and a live stream.
//
// Spans are phase-granular, never per-instruction: the simulator's
// instruction loop is untouched; only phase boundaries (warmup,
// measurement, energy rollup) and DPCS transition instants are
// recorded.
package tracez

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// FileName is the span sidecar's name inside a run directory.
const FileName = "spans.jsonl"

// KindInstant marks a zero-duration point event (a DPCS transition,
// for example) rather than an interval.
const KindInstant = "instant"

// Span is one traced interval (or instant). The JSON field names are
// the spans.jsonl wire format.
type Span struct {
	// Trace identifies the campaign execution; all spans of one Run
	// share it. It is the cross-node correlation key a distributed
	// fabric would propagate.
	Trace string `json:"trace"`
	// ID is unique within the trace; Parent is the enclosing span's ID
	// ("" for the root campaign span).
	ID     string `json:"span"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Kind is "" for an interval span, KindInstant for a point event.
	Kind string `json:"kind,omitempty"`
	// StartUnixNS and DurNS carry wall-clock placement and duration.
	// Spans deliberately never feed result records: spans.jsonl varies
	// run to run and is excluded from determinism comparisons.
	StartUnixNS int64 `json:"start_unix_ns"`
	DurNS       int64 `json:"dur_ns"`
	// Attrs is the span's attributes as one JSON object. The setters
	// append to it, so it is a complete object between calls; readers
	// decode it into a struct or map (numbers come back as JSON
	// numbers, whatever setter wrote them).
	Attrs json.RawMessage `json:"attrs,omitempty"`

	tracer *Tracer
	start  time.Time // monotonic anchor for DurNS
}

// Tracer creates spans and writes finished ones to its sink. Safe for
// concurrent use; a nil *Tracer is a valid no-op tracer.
type Tracer struct {
	sink  io.Writer
	trace string
	seq   atomic.Uint64

	// mu serialises sink writes; buf is the reused line buffer.
	mu  sync.Mutex
	buf []byte
}

// traceSeq disambiguates tracers created within the same nanosecond.
var traceSeq atomic.Uint64

// New returns a tracer writing each finished span to sink as one JSON
// line, newline included, in one Write call. Writes are serialised, so
// sink needs no locking of its own against the tracer; the line is
// only valid during the call, and write errors are ignored (the file
// sink latches its own). A nil sink discards spans.
func New(sink io.Writer) *Tracer {
	return &Tracer{
		sink:  sink,
		trace: fmt.Sprintf("%x-%x", time.Now().UnixNano(), traceSeq.Add(1)),
	}
}

// TraceID returns the trace identifier shared by this tracer's spans.
func (t *Tracer) TraceID() string {
	if t == nil {
		return ""
	}
	return t.trace
}

func (t *Tracer) newSpan(parent, name string) *Span {
	now := time.Now()
	return &Span{
		Trace:       t.trace,
		ID:          strconv.FormatUint(t.seq.Add(1), 16),
		Parent:      parent,
		Name:        name,
		StartUnixNS: now.UnixNano(),
		tracer:      t,
		start:       now,
	}
}

// Start begins a span as a child of ctx's current span (if any) and
// returns a context carrying the new span as current. On a nil tracer
// it returns ctx unchanged and a nil span.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	parent := ""
	if ps := SpanFromContext(ctx); ps != nil {
		parent = ps.ID
	}
	sp := t.newSpan(parent, name)
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// StartRoot begins a parentless span without touching any context —
// for bookkeeping work (results write, ledger append) that happens
// outside the job tree. Nil-safe.
func (t *Tracer) StartRoot(name string) *Span {
	if t == nil {
		return nil
	}
	return t.newSpan("", name)
}

// Child begins a span nested under sp without involving a context.
// Nil-safe: a nil parent yields a nil child.
func (sp *Span) Child(name string) *Span {
	if sp == nil {
		return nil
	}
	return sp.tracer.newSpan(sp.ID, name)
}

// attrCap sizes a span's attribute buffer on its first attribute: a
// job span's full set fits, so it grows no further.
const attrCap = 320

// key appends key to the attribute object: the first attribute opens
// the object, each later one overwrites its closing brace with a
// comma. The setter then appends the value and the closing brace.
// Each key should be set once; a reader keeps the last of duplicates.
func (sp *Span) key(key string) {
	if len(sp.Attrs) == 0 {
		sp.Attrs = append(make([]byte, 0, attrCap), '{')
	} else {
		sp.Attrs[len(sp.Attrs)-1] = ','
	}
	sp.Attrs = append(appendString(sp.Attrs, key), ':')
}

// SetStr attaches a string attribute. All setters are nil-safe and
// must be called before End.
func (sp *Span) SetStr(key, v string) {
	if sp == nil {
		return
	}
	sp.key(key)
	sp.Attrs = append(appendString(sp.Attrs, v), '}')
}

// SetInt attaches an integer attribute.
func (sp *Span) SetInt(key string, v int64) {
	if sp == nil {
		return
	}
	sp.key(key)
	sp.Attrs = append(strconv.AppendInt(sp.Attrs, v, 10), '}')
}

// SetUint attaches an unsigned integer attribute.
func (sp *Span) SetUint(key string, v uint64) {
	if sp == nil {
		return
	}
	sp.key(key)
	sp.Attrs = append(strconv.AppendUint(sp.Attrs, v, 10), '}')
}

// SetFloat attaches a float attribute; NaN and ±Inf, which JSON cannot
// carry, are recorded as null.
func (sp *Span) SetFloat(key string, v float64) {
	if sp == nil {
		return
	}
	sp.key(key)
	sp.Attrs = append(appendFloat(sp.Attrs, v), '}')
}

// SetBool attaches a boolean attribute.
func (sp *Span) SetBool(key string, v bool) {
	if sp == nil {
		return
	}
	sp.key(key)
	sp.Attrs = append(strconv.AppendBool(sp.Attrs, v), '}')
}

// End stamps the span's duration and writes it to the tracer's sink.
// Nil-safe; calling End twice writes the span twice, so don't.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	sp.DurNS = int64(time.Since(sp.start))
	sp.tracer.record(sp)
}

// EndInstant marks the span as a point event (zero duration, Kind
// "instant") and writes it. Use for occurrences like DPCS transitions
// where the duration is meaningless at span granularity.
func (sp *Span) EndInstant() {
	if sp == nil {
		return
	}
	sp.Kind = KindInstant
	sp.DurNS = 0
	sp.tracer.record(sp)
}

func (t *Tracer) record(sp *Span) {
	if t.sink == nil {
		return
	}
	t.mu.Lock()
	t.buf = sp.appendLine(t.buf[:0])
	// A span is best effort: a failing sink reports its own error
	// (JSONL latches it for Sync and Close) and the campaign goes on.
	_, _ = t.sink.Write(t.buf)
	t.mu.Unlock()
}

// appendLine appends the span's spans.jsonl line, newline included.
// Its fields are those of the Span struct tags, in order.
func (sp *Span) appendLine(b []byte) []byte {
	b = append(b, `{"trace":`...)
	b = appendString(b, sp.Trace)
	b = append(b, `,"span":`...)
	b = appendString(b, sp.ID)
	if sp.Parent != "" {
		b = append(b, `,"parent":`...)
		b = appendString(b, sp.Parent)
	}
	b = append(b, `,"name":`...)
	b = appendString(b, sp.Name)
	if sp.Kind != "" {
		b = append(b, `,"kind":`...)
		b = appendString(b, sp.Kind)
	}
	b = append(b, `,"start_unix_ns":`...)
	b = strconv.AppendInt(b, sp.StartUnixNS, 10)
	b = append(b, `,"dur_ns":`...)
	b = strconv.AppendInt(b, sp.DurNS, 10)
	if len(sp.Attrs) > 0 {
		b = append(b, `,"attrs":`...)
		b = append(b, sp.Attrs...)
	}
	return append(b, '}', '\n')
}

// appendString appends s as a JSON string. Each byte of invalid UTF-8
// becomes the escape of U+FFFD, as encoding/json writes it.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 {
				b = append(append(b, s[start:i]...), `\ufffd`...)
				start = i + 1
			}
			i += size
			continue
		}
		if c >= 0x20 && c != '"' && c != '\\' {
			i++
			continue
		}
		b = append(b, s[start:i]...)
		switch c {
		case '"', '\\':
			b = append(b, '\\', c)
		case '\n':
			b = append(b, '\\', 'n')
		case '\r':
			b = append(b, '\\', 'r')
		case '\t':
			b = append(b, '\\', 't')
		default:
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		}
		i++
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendFloat appends v as a JSON number in encoding/json's format.
func appendFloat(b []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(b, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		// Shorten a two-digit negative exponent: 1e-07 to 1e-7.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// Context propagation. Two independent keys: the tracer (installed
// once per campaign) and the current span (rebound by Start as the
// tree deepens). Zero-size key types box to the runtime's shared zero
// object, so context lookups on the disabled path do not allocate.
type (
	tracerKey struct{}
	spanKey   struct{}
)

// ContextWith returns a context carrying the tracer.
func ContextWith(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey{}, t)
}

// FromContext returns the context's tracer, or nil — and a nil tracer
// is safe to use directly, so callers never need to branch.
func FromContext(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}

// SpanFromContext returns the context's current span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// JSONL is a buffered spans.jsonl file sink. Write after Close drops
// the line, and a write error latches and surfaces from Sync and
// Close; Write itself always succeeds, so a failing file never keeps a
// line from the other writers of an io.MultiWriter.
type JSONL struct {
	mu     sync.Mutex
	f      *os.File
	w      *bufio.Writer
	err    error
	closed bool
}

// CreateJSONL creates (truncating) path and returns a sink writing to
// it.
func CreateJSONL(path string) (*JSONL, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("tracez: %w", err)
	}
	return &JSONL{f: f, w: bufio.NewWriter(f)}, nil
}

// Write appends one span line.
func (s *JSONL) Write(line []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.err != nil {
		return len(line), nil
	}
	if _, err := s.w.Write(line); err != nil {
		s.err = fmt.Errorf("tracez: write span: %w", err)
	}
	return len(line), nil
}

// Sync flushes buffered lines and fsyncs the file, so a killed process
// never leaves a torn line on disk. Safe to call concurrently with
// Write and after Close (then a no-op).
func (s *JSONL) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.err
	}
	if err := s.w.Flush(); err != nil && s.err == nil {
		s.err = fmt.Errorf("tracez: flush spans: %w", err)
	}
	if err := s.f.Sync(); err != nil && s.err == nil {
		s.err = fmt.Errorf("tracez: fsync spans: %w", err)
	}
	return s.err
}

// Close flushes and closes the file. Further Writes drop.
func (s *JSONL) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.err
	}
	if err := s.w.Flush(); err != nil && s.err == nil {
		s.err = fmt.Errorf("tracez: flush spans: %w", err)
	}
	if err := s.f.Close(); err != nil && s.err == nil {
		s.err = fmt.Errorf("tracez: close spans: %w", err)
	}
	s.closed = true
	return s.err
}

// ReadSpans decodes a spans.jsonl stream.
func ReadSpans(r io.Reader) ([]Span, error) {
	dec := json.NewDecoder(r)
	var spans []Span
	for {
		var sp Span
		if err := dec.Decode(&sp); err == io.EOF {
			return spans, nil
		} else if err != nil {
			return nil, fmt.Errorf("tracez: span %d: %w", len(spans), err)
		}
		spans = append(spans, sp)
	}
}

// ReadFile reads a spans.jsonl file.
func ReadFile(path string) ([]Span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tracez: %w", err)
	}
	defer f.Close()
	return ReadSpans(f)
}
