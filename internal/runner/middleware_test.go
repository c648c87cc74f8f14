package runner

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestRequestLoggerCapturesStatusAndID(t *testing.T) {
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	h := RequestLogger(logger, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
		w.Write([]byte("short and stout"))
	}))

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/brew", nil))

	if rec.Code != http.StatusTeapot {
		t.Fatalf("status = %d", rec.Code)
	}
	if rec.Header().Get(RequestIDHeader) == "" {
		t.Fatal("missing request id header")
	}
	out := logBuf.String()
	for _, want := range []string{"status=418", "path=/brew", "method=GET", "bytes=15"} {
		if !strings.Contains(out, want) {
			t.Errorf("log line missing %q: %s", want, out)
		}
	}
}

func TestRequestLoggerNilLoggerPassthrough(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
	if got := RequestLogger(nil, inner); got == nil {
		t.Fatal("nil logger should return handler unchanged, got nil")
	}
}

func TestStatusRecorderPreservesFlusher(t *testing.T) {
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	flushed := false
	h := RequestLogger(logger, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f, ok := w.(http.Flusher)
		if !ok {
			t.Fatal("wrapped writer lost http.Flusher")
		}
		w.Write([]byte("x\n"))
		f.Flush()
		flushed = true
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stream", nil))
	if !flushed {
		t.Fatal("handler did not flush")
	}
	if !rec.Flushed {
		t.Fatal("flush did not reach underlying writer")
	}
}

func TestRequestIDsAreUnique(t *testing.T) {
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	h := RequestLogger(logger, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	seen := map[string]bool{}
	for i := 0; i < 10; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
		id := rec.Header().Get(RequestIDHeader)
		if seen[id] {
			t.Fatalf("duplicate request id %q", id)
		}
		seen[id] = true
	}
}

// TestRequestLoggerConcurrent hammers a streaming handler through the
// middleware from many goroutines: every response must carry a distinct
// request id and every log line must be whole. Run under -race this
// also proves the recorder and id counter are data-race free.
func TestRequestLoggerConcurrent(t *testing.T) {
	var logBuf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewTextHandler(writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return logBuf.Write(p)
	}), nil))
	h := RequestLogger(logger, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Streaming-style handler: several writes with flushes between.
		f, _ := w.(http.Flusher)
		for i := 0; i < 4; i++ {
			w.Write([]byte("{\"line\":true}\n"))
			if f != nil {
				f.Flush()
			}
		}
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()

	const workers, per = 8, 20
	ids := make(chan string, workers*per)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				resp, err := http.Get(ts.URL + "/stream")
				if err != nil {
					t.Error(err)
					return
				}
				ids <- resp.Header.Get(RequestIDHeader)
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if got := strings.Count(string(body), "\n"); got != 4 {
					t.Errorf("body has %d lines, want 4", got)
				}
			}
		}()
	}
	wg.Wait()
	close(ids)
	seen := make(map[string]bool)
	for id := range ids {
		if id == "" {
			t.Fatal("response missing request id")
		}
		if seen[id] {
			t.Fatalf("duplicate request id %s", id)
		}
		seen[id] = true
	}
	if len(seen) != workers*per {
		t.Fatalf("saw %d ids, want %d", len(seen), workers*per)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		if !strings.Contains(line, "status=200") || !strings.Contains(line, "bytes=56") {
			t.Fatalf("log line %d malformed: %s", i, line)
		}
	}
}

// writerFunc adapts a function to io.Writer for log capture.
type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
