package runner

import (
	"fmt"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"
)

// reqSeq numbers requests within the process; combined with the process
// start time it yields ids unique enough to grep across restarts.
var reqSeq atomic.Uint64

var processEpoch = time.Now().UnixNano()

// RequestIDHeader is the response header carrying the request id.
const RequestIDHeader = "X-Request-Id"

// statusRecorder captures the response status and size while preserving
// the streaming interfaces the NDJSON endpoints rely on.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(b)
	r.bytes += int64(n)
	return n, err
}

// Flush passes streaming flushes through to the underlying writer, so
// wrapped NDJSON handlers keep their incremental delivery.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap supports http.ResponseController.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// RequestLogger wraps next with structured access logging: every
// request gets an id (also returned in X-Request-Id) and one slog line
// with method, path, status, bytes and duration. A nil logger returns
// next unchanged.
func RequestLogger(log *slog.Logger, next http.Handler) http.Handler {
	if log == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := fmt.Sprintf("%x-%06d", uint64(processEpoch)&0xFFFFFF, reqSeq.Add(1))
		w.Header().Set(RequestIDHeader, id)
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		log.Info("request",
			"id", id,
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"bytes", rec.bytes,
			"duration_ms", float64(time.Since(start).Microseconds())/1e3,
			"remote", r.RemoteAddr,
		)
	})
}
