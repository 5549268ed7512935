package lifecycle

import (
	"encoding/json"
	"fmt"
	"time"

	"sslperf/internal/telemetry"
)

// chromeEvent is one Chrome trace-event (the "Trace Event Format"
// consumed by chrome://tracing and Perfetto). Timestamps and durations
// are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  uint64         `json:"pid"`
	TID  uint64         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeDoc is the JSON Object Format wrapper.
type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// chromePID is the one process of the exported trace, "ssl
// connections"; each connection is a thread of it.
const chromePID = 1

// ChromeTrace renders connection records as Chrome trace-event JSON:
// per connection a thread carrying its handshake span, step spans and
// sampled calls.
func ChromeTrace(recs []Record) ([]byte, error) {
	var base time.Time
	for _, r := range recs {
		if base.IsZero() || r.Opened.Before(base) {
			base = r.Opened
		}
	}

	doc := chromeDoc{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{
		{Name: "process_name", Ph: "M", PID: chromePID,
			Args: map[string]any{"name": "ssl connections"}},
	}}
	for _, r := range recs {
		opened := us(r.Opened.Sub(base))
		span := func(name, cat string, atUs, durUs float64) *chromeEvent {
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: name, Cat: cat, Ph: "X", TS: opened + atUs, Dur: durUs,
				PID: chromePID, TID: r.ID, Args: map[string]any{"conn": r.ID},
			})
			return &doc.TraceEvents[len(doc.TraceEvents)-1]
		}
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", PID: chromePID, TID: r.ID,
			Args: map[string]any{"name": fmt.Sprintf("conn %d (%s, %s)", r.ID, r.Role, r.State)},
		})
		if r.HandshakeUs > 0 {
			hs := span("handshake", telemetry.CatConn, r.HandshakeAtUs, r.HandshakeUs)
			if r.Suite != "" {
				hs.Args["detail"] = r.Suite
				if r.Resumed {
					hs.Args["detail"] = r.Suite + " resumed"
				}
			}
		}
		for _, st := range r.Steps {
			span(st.Step, telemetry.CatStep, st.AtUs, st.Us)
		}
		for _, c := range r.Calls {
			ev := span(c.Name, c.Kind, c.AtUs, c.Us)
			if c.Bytes > 0 {
				ev.Args["bytes"] = c.Bytes
			}
		}
	}
	return json.MarshalIndent(&doc, "", " ")
}
