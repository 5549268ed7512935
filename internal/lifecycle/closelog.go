package lifecycle

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// CloseLogCounts is the close-log's reconciliation ledger: every close
// is counted whether or not its line was emitted, so
// Successes+Failures always equals the table's total_closed and the
// telemetry handshake counters can be cross-checked exactly even with
// success sampling on.
type CloseLogCounts struct {
	Successes  uint64 `json:"successes"`
	Failures   uint64 `json:"failures"`
	Logged     uint64 `json:"logged"`
	Suppressed uint64 `json:"suppressed"` // successes sampled out
}

// A CloseLog writes one JSON line per connection close: the closing
// connection's record (the /debug/conns row shape — step timeline with
// offsets and durations, suite, resumed flag, byte counts, and on
// failures the canonical fail class, tag, and error text) under a
// time, a level (INFO, or WARN for a failure), the message
// "conn_close" and the connection ID as "conn". Successes are sampled
// 1-in-N; failures are always logged. A nil *CloseLog no-ops.
type CloseLog struct {
	sampleEvery uint64

	mu     sync.Mutex // one close at a time: the ledger and the line
	enc    *json.Encoder
	counts CloseLogCounts
}

// closeLine is the line's shape: the record with a log header.
type closeLine struct {
	Time  time.Time `json:"time"`
	Level string    `json:"level"`
	Msg   string    `json:"msg"`
	Conn  uint64    `json:"conn"`
	Record
}

// NewCloseLog writes JSON lines to w, logging every sampleEvery'th
// successful close (<=1 logs all successes). Failures always log.
func NewCloseLog(w io.Writer, sampleEvery int) *CloseLog {
	return &CloseLog{enc: json.NewEncoder(w), sampleEvery: uint64(max(sampleEvery, 1))}
}

// Counts returns the reconciliation ledger.
func (cl *CloseLog) Counts() CloseLogCounts {
	if cl == nil {
		return CloseLogCounts{}
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.counts
}

func (cl *CloseLog) resetCounts() {
	if cl != nil {
		cl.mu.Lock()
		cl.counts = CloseLogCounts{}
		cl.mu.Unlock()
	}
}

// observe counts one close and, subject to sampling, renders the
// closing entry's record as its line — a sampled-out success costs
// counters only. Called by the entry's owner.
func (cl *CloseLog) observe(c *Conn, failed bool) {
	if cl == nil {
		return
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	level := "INFO"
	if failed {
		cl.counts.Failures++
		level = "WARN"
	} else {
		cl.counts.Successes++
		if cl.counts.Successes%cl.sampleEvery != 0 {
			cl.counts.Suppressed++
			return
		}
	}
	cl.counts.Logged++
	// A log line that cannot be written has nowhere to report it.
	_ = cl.enc.Encode(&closeLine{Time: c.closed, Level: level, Msg: "conn_close", Conn: c.ID, Record: c.record(c.closed, false)})
}
