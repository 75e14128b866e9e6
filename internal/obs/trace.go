package obs

import (
	"encoding/json"
	"os"
)

// Chrome trace-event phases (the subset the exporter emits).
const (
	phSpan    = "X" // complete duration event (ts + dur)
	phInstant = "i" // instant event
	phMeta    = "M" // metadata (process_name / thread_name)
)

// Instant-event scopes.
const (
	scopeThread  = "t"
	scopeProcess = "p"
)

// traceEvent is one entry of a Chrome trace-event document
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
// Timestamps and durations are microseconds; here they carry simulated
// time, so one trace second is one simulated second.
type traceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// traceFile is the JSON-object envelope Perfetto and chrome://tracing load.
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// Trace is an assembled trace-event document ready for export.
type Trace struct {
	events []traceEvent
}

func (t *Trace) add(ev traceEvent) { t.events = append(t.events, ev) }

// JSON serializes the document. The encoding is deterministic: events keep
// insertion order and encoding/json marshals args maps with sorted keys,
// so identical span sets yield byte-identical files.
func (t *Trace) JSON() ([]byte, error) {
	return json.Marshal(traceFile{TraceEvents: t.events, DisplayTimeUnit: "ms"})
}

// WriteFile serializes the document to path with a trailing newline.
func (t *Trace) WriteFile(path string) error {
	raw, err := t.JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
