package lifecycle

import (
	"encoding/json"
	"fmt"
	"time"

	"sslperf/internal/probe"
	"sslperf/internal/trace"
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
	ID   uint64         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeDoc is the JSON Object Format wrapper.
type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Process IDs in the exported trace: each connection is a thread of
// the "ssl connections" process; engine spans (RSA batches) run in
// their own process so cross-connection work is visually distinct.
const (
	chromePIDConns  = 1
	chromePIDEngine = 2
)

// ChromeTrace renders connection records and engine spans as Chrome
// trace-event JSON: per connection a thread carrying its handshake
// span, step spans and sampled calls. Engine spans carry args.links
// naming the connection and step they served, plus flow events
// ("s"/"f" pairs) so Perfetto draws arrows from each linked handshake
// step to the batch that resolved it.
func ChromeTrace(recs []Record, engine []*trace.Span) ([]byte, error) {
	var base time.Time
	for _, r := range recs {
		if base.IsZero() || r.Opened.Before(base) {
			base = r.Opened
		}
	}
	for _, sp := range engine {
		if base.IsZero() || sp.Start.Before(base) {
			base = sp.Start
		}
	}
	sinceBase := func(t time.Time) float64 { return us(t.Sub(base)) }

	doc := chromeDoc{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{
		{Name: "process_name", Ph: "M", PID: chromePIDConns,
			Args: map[string]any{"name": "ssl connections"}},
		{Name: "process_name", Ph: "M", PID: chromePIDEngine,
			Args: map[string]any{"name": "crypto engines"}},
		{Name: "thread_name", Ph: "M", PID: chromePIDEngine, TID: 1,
			Args: map[string]any{"name": "rsabatch"}},
	}}
	// stepEnd is where a flow arrow leaves a linked handshake step.
	type stepKey struct {
		conn uint64
		step string
	}
	stepEnd := map[stepKey]float64{}

	for _, r := range recs {
		opened := sinceBase(r.Opened)
		span := func(name, cat string, atUs, durUs float64) *chromeEvent {
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: name, Cat: cat, Ph: "X", TS: opened + atUs, Dur: durUs,
				PID: chromePIDConns, TID: r.ID, Args: map[string]any{"conn": r.ID},
			})
			return &doc.TraceEvents[len(doc.TraceEvents)-1]
		}
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", PID: chromePIDConns, TID: r.ID,
			Args: map[string]any{"name": fmt.Sprintf("conn %d (%s, %s)", r.ID, r.Role, r.State)},
		})
		if r.HandshakeUs > 0 {
			hs := span("handshake", trace.CatConn, r.HandshakeAtUs, r.HandshakeUs)
			if r.Suite != "" {
				hs.Args["detail"] = r.Suite
				if r.Resumed {
					hs.Args["detail"] = r.Suite + " resumed"
				}
			}
		}
		for _, st := range r.Steps {
			span(st.Step, trace.CatStep, st.AtUs, st.Us)
			stepEnd[stepKey{r.ID, st.Step}] = opened + st.AtUs + st.Us
		}
		for _, c := range r.Calls {
			ev := span(c.Name, c.Kind, c.AtUs, c.Us)
			if c.Bytes > 0 {
				ev.Args["bytes"] = c.Bytes
			}
		}
	}

	var flows uint64
	for _, sp := range engine {
		ev := chromeEvent{
			Name: sp.Name, Cat: sp.Category, Ph: "X",
			TS: sinceBase(sp.Start), Dur: us(sp.Duration),
			PID: chromePIDEngine, TID: 1,
			Args: map[string]any{"span": sp.ID},
		}
		if sp.Detail != "" {
			ev.Args["detail"] = sp.Detail
		}
		if len(sp.Links) > 0 {
			ev.Args["links"] = sp.Links
		}
		doc.TraceEvents = append(doc.TraceEvents, ev)

		// Flow arrows: start at each linked handshake step (when it is
		// in the export window), finish at this engine span.
		for _, l := range sp.Links {
			end, ok := stepEnd[stepKey{l.Trace, probe.Step(l.Span).Name()}]
			if !ok {
				continue
			}
			flows++
			doc.TraceEvents = append(doc.TraceEvents,
				chromeEvent{Name: "rsa_batch", Cat: "flow", Ph: "s", ID: flows,
					TS: end, PID: chromePIDConns, TID: l.Trace},
				chromeEvent{Name: "rsa_batch", Cat: "flow", Ph: "f", BP: "e", ID: flows,
					TS: sinceBase(sp.Start), PID: chromePIDEngine, TID: 1})
		}
	}
	return json.MarshalIndent(&doc, "", " ")
}
