package tracez

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Chrome trace-event export: converts spans.jsonl into the JSON object
// format consumed by Perfetto (ui.perfetto.dev) and chrome://tracing.
// Interval spans become complete events (ph "X"), instants become
// thread-scoped instant events (ph "i"). Tracks (tid) are assigned
// from the span's "worker" attribute when present — so the Perfetto
// view shows the actual worker-pool schedule — falling back to the
// "job" attribute, then to track 0 for campaign-level bookkeeping.

// chromeEvent is one entry of the traceEvents array.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"` // instant scope
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level document.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// chromeArgs decodes a span's attributes into an event's args, keeping
// numbers exact, and adds the span and parent IDs so they are findable
// in the Perfetto args pane.
func chromeArgs(sp *Span) (map[string]any, error) {
	args := make(map[string]any)
	if len(sp.Attrs) > 0 {
		dec := json.NewDecoder(bytes.NewReader(sp.Attrs))
		dec.UseNumber()
		if err := dec.Decode(&args); err != nil {
			return nil, fmt.Errorf("tracez: span %s attrs: %w", sp.ID, err)
		}
	}
	args["span"] = sp.ID
	if sp.Parent != "" {
		args["parent"] = sp.Parent
	}
	return args, nil
}

// chromeTID picks the event's track from its decoded args.
func chromeTID(args map[string]any) (tid int, isWorker bool) {
	for _, key := range []string{"worker", "job"} {
		if n, ok := args[key].(json.Number); ok {
			if v, err := n.Int64(); err == nil {
				return int(v), key == "worker"
			}
		}
	}
	return 0, false
}

// WriteChromeTrace renders spans as a Chrome trace-event JSON document.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	doc := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: make([]chromeEvent, 0, len(spans)+4)}
	workers := make(map[int]bool)
	for i := range spans {
		sp := &spans[i]
		args, err := chromeArgs(sp)
		if err != nil {
			return err
		}
		tid, isWorker := chromeTID(args)
		if isWorker {
			workers[tid] = true
		}
		ev := chromeEvent{
			Name:  sp.Name,
			Cat:   "pcs",
			Phase: "X",
			TS:    float64(sp.StartUnixNS) / 1e3,
			Dur:   float64(sp.DurNS) / 1e3,
			PID:   1,
			TID:   tid,
			Args:  args,
		}
		if sp.Kind == KindInstant {
			ev.Phase = "i"
			ev.Scope = "t"
			ev.Dur = 0
		}
		doc.TraceEvents = append(doc.TraceEvents, ev)
	}
	// Thread-name metadata gives the worker tracks readable labels.
	tids := make([]int, 0, len(workers))
	for tid := range workers {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "thread_name", Phase: "M", Cat: "__metadata", PID: 1, TID: tid,
			Args: map[string]any{"name": fmt.Sprintf("worker %d", tid)},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
