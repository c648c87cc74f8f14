package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// JSONLSink streams policy events as JSON lines. It buffers writes and
// records the first encode error; callers check Err or Close. It is not
// safe for concurrent use — attach one sink per simulator instance.
type JSONLSink struct {
	w   *bufio.Writer
	c   io.Closer
	enc *json.Encoder
	err error
	n   int
}

// NewJSONLSink writes events to w; the caller owns w's lifetime.
func NewJSONLSink(w io.Writer) *JSONLSink {
	bw := bufio.NewWriter(w)
	return &JSONLSink{w: bw, enc: json.NewEncoder(bw)}
}

// CreateJSONL creates (truncating) path and returns a sink that owns the
// file; Close flushes and closes it.
func CreateJSONL(path string) (*JSONLSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: create timeline: %w", err)
	}
	s := NewJSONLSink(f)
	s.c = f
	return s, nil
}

// Record implements PolicySink.
func (s *JSONLSink) Record(ev PolicyEvent) {
	if s.err != nil {
		return
	}
	if err := s.enc.Encode(&ev); err != nil {
		s.err = fmt.Errorf("obs: encode timeline event: %w", err)
		return
	}
	s.n++
}

// Events returns how many events have been written.
func (s *JSONLSink) Events() int { return s.n }

// Err returns the first write error, if any.
func (s *JSONLSink) Err() error { return s.err }

// Close flushes the buffer (and closes the file for CreateJSONL sinks),
// returning the first error seen.
func (s *JSONLSink) Close() error {
	if err := s.w.Flush(); err != nil && s.err == nil {
		s.err = fmt.Errorf("obs: flush timeline: %w", err)
	}
	if s.c != nil {
		if err := s.c.Close(); err != nil && s.err == nil {
			s.err = fmt.Errorf("obs: close timeline: %w", err)
		}
		s.c = nil
	}
	return s.err
}

// ReadPolicyEvents decodes a JSONL policy timeline.
func ReadPolicyEvents(r io.Reader) ([]PolicyEvent, error) {
	var out []PolicyEvent
	dec := json.NewDecoder(r)
	for {
		var ev PolicyEvent
		if err := dec.Decode(&ev); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, fmt.Errorf("obs: timeline line %d: %w", len(out)+1, err)
		}
		out = append(out, ev)
	}
}

// ReadPolicyTimeline reads a policy timeline JSONL file.
func ReadPolicyTimeline(path string) ([]PolicyEvent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("obs: open timeline: %w", err)
	}
	defer f.Close()
	return ReadPolicyEvents(bufio.NewReader(f))
}
