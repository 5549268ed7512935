package lifecycle

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"sslperf/internal/probe"
	"sslperf/internal/telemetry"
)

// A Record is the rendering copy of one connection's record, open or
// closed: the /debug/conns row, the element of the
// /debug/flightrecorder body and what a /debug/trace thread renders.
// Times inside it are microsecond offsets from Opened.
type Record struct {
	ID      uint64 `json:"id"`
	Role    string `json:"role,omitempty"`
	Remote  string `json:"remote,omitempty"`
	State   string `json:"state"`
	Step    string `json:"step,omitempty"` // open Table-2 step while handshaking
	Suite   string `json:"suite,omitempty"`
	Version string `json:"version,omitempty"`
	Resumed bool   `json:"resumed,omitempty"`

	Opened time.Time `json:"opened"`
	AgeMs  float64   `json:"age_ms"` // to now, or to the close
	IdleMs float64   `json:"idle_ms"`

	HandshakeAtUs float64 `json:"handshake_at_us,omitempty"`
	HandshakeUs   float64 `json:"handshake_us,omitempty"`
	QueueDelayUs  float64 `json:"queue_delay_us,omitempty"`

	// Records, bytes and alerts moved in each direction.
	telemetry.IOCounts

	FailClass  string `json:"fail_class,omitempty"`
	FailTag    string `json:"fail_tag,omitempty"`
	FailDetail string `json:"fail_detail,omitempty"`

	// Detail says what the record kept beyond the step timeline and
	// the totals: "full", or why not ("sampled_out", or "truncated"
	// at the per-record cap; empty without -trace).
	Detail string     `json:"detail,omitempty"`
	Steps  []StepLine `json:"steps,omitempty"`
	Calls  []CallLine `json:"calls,omitempty"`
}

// StepLine is one completed handshake step of a record.
type StepLine struct {
	Step string  `json:"step"`
	AtUs float64 `json:"at_us"`
	Us   float64 `json:"us"` // active time: parked intervals excluded
}

// CallLine is one item of a sampled record's detail: a crypto call, a
// bulk-phase record pass, an application read or write, the accept.
type CallLine struct {
	Kind  string  `json:"kind"` // the Chrome category (telemetry.Cat*)
	Name  string  `json:"name"`
	Step  string  `json:"step,omitempty"`
	AtUs  float64 `json:"at_us"`
	Us    float64 `json:"us"`
	Bytes int     `json:"bytes,omitempty"`
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// record snapshots the entry, with its sampled detail when full is
// set. Callers hold c.mu (or own the entry).
func (c *Conn) record(now time.Time, full bool) Record {
	if !c.closed.IsZero() {
		now = c.closed
	}
	r := Record{
		ID:       c.ID,
		Role:     c.role,
		Remote:   c.Remote,
		State:    c.state.Name(),
		Suite:    c.suite,
		Resumed:  c.resumed,
		Opened:   c.Opened,
		AgeMs:    ms(now.Sub(c.Opened)),
		IdleMs:   max(ms(now.Sub(c.lastActivity)), 0),
		IOCounts: c.io,
		Detail:   c.detail,
	}
	if c.version != 0 {
		r.Version = telemetry.VersionName(c.version)
	}
	if c.state == StateHandshaking && c.step != probe.StepNone {
		r.Step = c.step.Name()
	}
	if !c.hsStart.IsZero() {
		r.HandshakeAtUs = us(c.hsStart.Sub(c.Opened))
	}
	if c.hsDur > 0 {
		r.HandshakeUs = us(c.hsDur)
	}
	if c.queueDelay >= 0 {
		r.QueueDelayUs = us(c.queueDelay)
	}
	if c.state == StateFailed {
		r.FailClass, r.FailTag, r.FailDetail = c.failClass.Name(), c.failTag, c.failDetail
	}
	for _, st := range c.timeline[:c.timelineN] {
		r.Steps = append(r.Steps, StepLine{
			Step: st.Step.Name(), AtUs: us(st.Start.Sub(c.Opened)), Us: us(st.Dur),
		})
	}
	if full {
		for _, call := range c.calls {
			r.Calls = append(r.Calls, CallLine{
				Kind: call.Kind, Name: call.Name, Step: call.Step.Name(),
				AtUs: us(call.At.Sub(c.Opened)), Us: us(call.Dur), Bytes: call.Bytes,
			})
		}
	}
	return r
}

// FlightText renders records as the flight recorder's per-connection
// event lists: one header line per connection, then its life in time
// order — handshake start, each step with the calls inside it,
// the outcome, application I/O, the close.
func FlightText(recs []Record) string {
	var sb strings.Builder
	for _, r := range recs {
		fmt.Fprintf(&sb, "conn %d %s %s %s", r.ID, r.Role, r.Remote, r.State)
		if r.Suite != "" {
			fmt.Fprintf(&sb, " %s %s resumed=%v", r.Suite, r.Version, r.Resumed)
		}
		fmt.Fprintf(&sb, " age=%.3fms in=%dB/%drec out=%dB/%drec detail=%s\n",
			r.AgeMs, r.BytesIn, r.RecordsIn, r.BytesOut, r.RecordsOut, r.Detail)

		type line struct {
			at   float64
			text string
		}
		var lines []line
		if r.HandshakeAtUs != 0 || r.HandshakeUs != 0 || len(r.Steps) > 0 {
			lines = append(lines, line{r.HandshakeAtUs, "handshake_start"})
		}
		for _, st := range r.Steps {
			lines = append(lines, line{st.AtUs, fmt.Sprintf("step %s %.1fus", st.Step, st.Us)})
		}
		for _, c := range r.Calls {
			text := fmt.Sprintf("  %s %s %.1fus", c.Kind, c.Name, c.Us)
			if c.Bytes > 0 {
				text += fmt.Sprintf(" %dB", c.Bytes)
			}
			lines = append(lines, line{c.AtUs, text})
		}
		switch {
		case r.FailTag != "" || r.FailClass != "":
			lines = append(lines, line{r.HandshakeAtUs + r.HandshakeUs,
				fmt.Sprintf("handshake_fail %s: %s", r.FailTag, r.FailDetail)})
		case r.HandshakeUs > 0:
			lines = append(lines, line{r.HandshakeAtUs + r.HandshakeUs,
				fmt.Sprintf("handshake_done %.1fus", r.HandshakeUs)})
		}
		if r.State == StateClosed.Name() || r.State == StateFailed.Name() {
			lines = append(lines, line{r.AgeMs * 1e3, "close"})
		}
		sort.SliceStable(lines, func(i, j int) bool { return lines[i].at < lines[j].at })
		for _, l := range lines {
			fmt.Fprintf(&sb, "  %+-13.1f %s\n", l.at, l.text)
		}
	}
	return sb.String()
}

// writeCounts prints label and m's entries as k=v in key order, or
// nothing for an empty map.
func writeCounts[V int | uint64](sb *strings.Builder, label string, m map[string]V) {
	if len(m) == 0 {
		return
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sb.WriteString(label)
	for _, k := range keys {
		fmt.Fprintf(sb, " %s=%d", k, m[k])
	}
	sb.WriteByte('\n')
}

// Text renders the snapshot as an aligned table.
func (s Snapshot) Text() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "conns: %d live (opened %d, closed %d, failed %d)\n",
		s.Live, s.Opened, s.Closed, s.Failed)
	writeCounts(&sb, "by state:", s.ByState)
	writeCounts(&sb, "failures by class:", s.FailClasses)
	fmt.Fprintf(&sb, "close-log: %d successes, %d failures, %d logged, %d suppressed\n",
		s.CloseLog.Successes, s.CloseLog.Failures, s.CloseLog.Logged, s.CloseLog.Suppressed)
	if len(s.Conns) == 0 {
		return sb.String()
	}
	fmt.Fprintf(&sb, "%-6s %-12s %-18s %-22s %-26s %8s %8s %10s %10s %10s %s\n",
		"id", "state", "step", "remote", "suite", "age-ms", "idle-ms", "hs-us", "bytes-in", "bytes-out", "fail")
	for _, c := range s.Conns {
		suite := c.Suite
		if c.Resumed {
			suite += " (resumed)"
		}
		fail := c.FailTag
		if fail == "" {
			fail = c.FailClass
		}
		fmt.Fprintf(&sb, "%-6d %-12s %-18s %-22s %-26s %8.1f %8.1f %10.0f %10d %10d %s\n",
			c.ID, c.State, c.Step, c.Remote, suite, c.AgeMs, c.IdleMs, c.HandshakeUs,
			c.BytesIn, c.BytesOut, fail)
	}
	if s.Truncated > 0 {
		fmt.Fprintf(&sb, "... %d more rows (raise ?limit=)\n", s.Truncated)
	}
	return sb.String()
}
