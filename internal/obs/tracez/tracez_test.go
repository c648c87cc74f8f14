package tracez

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// readBack decodes the lines a tracer wrote to buf, as a spans.jsonl
// reader would.
func readBack(t *testing.T, buf *bytes.Buffer) []Span {
	t.Helper()
	spans, err := ReadSpans(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return spans
}

// attrs decodes a span's attribute object.
func attrs(t *testing.T, sp Span) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(sp.Attrs, &m); err != nil {
		t.Fatalf("span %s attrs %s: %v", sp.Name, sp.Attrs, err)
	}
	return m
}

// TestSpanTreeAndAttrs checks context propagation builds the parent
// chain and attributes survive to the sink, reading back in their JSON
// types.
func TestSpanTreeAndAttrs(t *testing.T) {
	var buf bytes.Buffer
	tr := New(&buf)
	ctx := ContextWith(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("FromContext did not return the installed tracer")
	}

	ctx, root := tr.Start(ctx, "campaign")
	root.SetStr("campaign", "fig4")
	ctx2, job := tr.Start(ctx, "job")
	job.SetInt("job", 3)
	job.SetUint("seed", 42)
	job.SetBool("cached", true)
	job.SetFloat("f", 1.5)
	if SpanFromContext(ctx2) != job {
		t.Fatal("Start did not rebind the current span")
	}
	phase := job.Child("sim.build")
	phase.End()
	job.End()
	root.End()

	spans := readBack(t, &buf)
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]Span{}
	for _, sp := range spans {
		byName[sp.Name] = sp
		if sp.Trace != tr.TraceID() {
			t.Errorf("span %s trace %q, want %q", sp.Name, sp.Trace, tr.TraceID())
		}
	}
	if byName["campaign"].Parent != "" {
		t.Errorf("campaign span has parent %q", byName["campaign"].Parent)
	}
	if byName["job"].Parent != byName["campaign"].ID {
		t.Errorf("job parent %q, want campaign ID %q", byName["job"].Parent, byName["campaign"].ID)
	}
	if byName["sim.build"].Parent != byName["job"].ID {
		t.Errorf("phase parent %q, want job ID %q", byName["sim.build"].Parent, byName["job"].ID)
	}
	a := attrs(t, byName["job"])
	if a["job"] != 3.0 || a["seed"] != 42.0 || a["cached"] != true || a["f"] != 1.5 || len(a) != 4 {
		t.Errorf("job attrs %v", a)
	}
	if a := attrs(t, byName["campaign"]); a["campaign"] != "fig4" {
		t.Errorf("campaign attrs %v", a)
	}
	if len(byName["sim.build"].Attrs) != 0 {
		t.Errorf("attribute-less span carries attrs %s", byName["sim.build"].Attrs)
	}
	if byName["campaign"].DurNS < 0 || byName["campaign"].StartUnixNS == 0 {
		t.Errorf("campaign timing %+v", byName["campaign"])
	}
}

// TestAttrEncoding checks the setters' hand-written JSON against
// encoding/json: every string decodes to what json.Marshal's encoding
// of it decodes to (escapes, control bytes, invalid UTF-8), floats are
// written byte for byte as json.Marshal writes them, and the span line
// decodes to the span's own fields.
func TestAttrEncoding(t *testing.T) {
	strs := []string{"", "plain", `quote " and \ backslash`, "line\nbreak\ttab\rreturn",
		"\x00\x01\x1f\x7f control", "héllo ✓ 𝄞", "bad \xff\xfe utf8 \xe2\x82", "<html> & \u2028"}
	for _, s := range strs {
		var got, want string
		if err := json.Unmarshal(appendString(nil, s), &got); err != nil {
			t.Fatalf("%q: our encoding %s does not decode: %v", s, appendString(nil, s), err)
		}
		ref, _ := json.Marshal(s)
		if err := json.Unmarshal(ref, &want); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%q decodes to %q, encoding/json's to %q", s, got, want)
		}
	}
	for _, f := range []float64{0, 1, -2.5, 1.5e-7, 3e-6, 123456.789, 1e21, 9.999e20, -4.2e-300, math.MaxFloat64} {
		ref, _ := json.Marshal(f)
		if got := appendFloat(nil, f); string(got) != string(ref) {
			t.Errorf("float %g encodes as %s, encoding/json as %s", f, got, ref)
		}
	}

	var buf bytes.Buffer
	tr := New(&buf)
	_, sp := tr.Start(context.Background(), "name \"quoted\"")
	sp.SetStr("error", "panic: boom\n\tgoroutine 1")
	sp.SetFloat("nan", math.NaN())
	sp.SetInt("neg", -7)
	sp.SetUint("max", math.MaxUint64)
	sp.SetBool("no", false)
	sp.End()
	spans := readBack(t, &buf)
	if len(spans) != 1 || spans[0].Name != `name "quoted"` || spans[0].ID != sp.ID || spans[0].DurNS != sp.DurNS {
		t.Fatalf("read back %+v, recorded %+v", spans, sp)
	}
	var a struct {
		Error string   `json:"error"`
		NaN   *float64 `json:"nan"`
		Neg   int64    `json:"neg"`
		Max   uint64   `json:"max"`
		No    *bool    `json:"no"`
	}
	if err := json.Unmarshal(spans[0].Attrs, &a); err != nil {
		t.Fatal(err)
	}
	if a.Error != "panic: boom\n\tgoroutine 1" || a.NaN != nil || a.Neg != -7 || a.Max != math.MaxUint64 || a.No == nil || *a.No {
		t.Errorf("attrs %s decode to %+v", spans[0].Attrs, a)
	}
}

// TestNilTracerIsNoOp checks every call is safe with no tracer
// installed: the disabled path must never branch at call sites.
func TestNilTracerIsNoOp(t *testing.T) {
	ctx := context.Background()
	tr := FromContext(ctx)
	if tr != nil {
		t.Fatal("FromContext on empty context should be nil")
	}
	ctx2, sp := tr.Start(ctx, "x")
	if ctx2 != ctx || sp != nil {
		t.Fatal("nil tracer Start must return ctx unchanged and nil span")
	}
	sp.SetStr("k", "v")
	sp.SetInt("k", 1)
	sp.End()
	sp.EndInstant()
	if child := sp.Child("y"); child != nil {
		t.Fatal("nil span Child must be nil")
	}
	if tr.StartRoot("r") != nil {
		t.Fatal("nil tracer StartRoot must be nil")
	}
	if SpanFromContext(ctx) != nil {
		t.Fatal("SpanFromContext on empty context should be nil")
	}
}

// TestTracingOffZeroAllocs is the hot-path gate: the full
// instrumentation sequence with tracing disabled must not allocate.
// scripts/check.sh runs this as a regression gate.
func TestTracingOffZeroAllocs(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		tr := FromContext(ctx)
		ctx2, sp := tr.Start(ctx, "job")
		sp.SetStr("kind", "fig4-cell")
		sp.SetInt("job", 7)
		sp.SetUint("seed", 99)
		child := sp.Child("sim.build")
		child.End()
		ev := SpanFromContext(ctx2).Child("dpcs.transition")
		ev.EndInstant()
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocates %.1f per run, want 0", allocs)
	}
}

// TestJSONLRoundTrip checks spans survive the sidecar format, that
// Sync leaves whole lines on disk mid-stream, and that a span ended
// after Close drops without error.
func TestJSONLRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), FileName)
	sink, err := CreateJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := New(sink)
	_, sp := tr.Start(context.Background(), "a")
	sp.SetStr("k", "v")
	sp.End()
	if err := sink.Sync(); err != nil {
		t.Fatal(err)
	}
	// After Sync the file must already hold the first complete line.
	if spans, err := ReadFile(path); err != nil || len(spans) != 1 {
		t.Fatalf("after Sync: spans=%d err=%v", len(spans), err)
	}
	ev := sp.Child("b")
	ev.EndInstant()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	tr.StartRoot("late").End() // must drop silently
	if err := sink.Sync(); err != nil {
		t.Fatal(err)
	}

	spans, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "a" || attrs(t, spans[0])["k"] != "v" {
		t.Errorf("span 0 = %+v", spans[0])
	}
	if spans[1].Name != "b" || spans[1].Kind != KindInstant || spans[1].Parent != spans[0].ID {
		t.Errorf("span 1 = %+v", spans[1])
	}
}

// TestJSONLConcurrentRecord hammers one sink from many goroutines and
// checks every line decodes whole (run under -race in check).
func TestJSONLConcurrentRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), FileName)
	sink, err := CreateJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := New(sink)
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sp := tr.StartRoot("s")
				sp.SetInt("worker", int64(w))
				sp.End()
				if i%10 == 0 {
					sink.Sync()
				}
			}
		}(w)
	}
	wg.Wait()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	spans, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != workers*per {
		t.Fatalf("got %d spans, want %d", len(spans), workers*per)
	}
}

// TestTeeFansOut checks a tracer writing to several sinks hands each
// the same bytes: a run directory's spans.jsonl and a live stream are
// one encoding.
func TestTeeFansOut(t *testing.T) {
	var a, b bytes.Buffer
	tr := New(io.MultiWriter(&a, &b))
	sp := tr.StartRoot("x")
	sp.SetStr("k", "v")
	sp.End()
	tr.StartRoot("y").End()
	if a.String() != b.String() || strings.Count(a.String(), "\n") != 2 {
		t.Fatalf("sinks differ or miss lines:\n%s\n%s", a.String(), b.String())
	}
}

// TestTraceIDsDistinct checks two tracers created back-to-back get
// distinct trace IDs even within one nanosecond tick.
func TestTraceIDsDistinct(t *testing.T) {
	a, b := New(nil), New(nil)
	if a.TraceID() == b.TraceID() || a.TraceID() == "" {
		t.Fatalf("trace IDs %q vs %q", a.TraceID(), b.TraceID())
	}
	// A tracer with a nil sink must still be usable.
	_, sp := a.Start(context.Background(), "x")
	sp.SetInt("k", 1)
	sp.End()
}
