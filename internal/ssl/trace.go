package ssl

import "sslperf/internal/trace"

// traceStart arms a sampled connection: starts (or adopts) its
// ConnTrace and opens the top-level handshake span; c.ct stays nil
// when the tracer declines to sample. The step, crypto, and
// record-layer span flow arrives through the trace probe sink on the
// bus. Called only when a tracer or a pre-started trace is present.
func (c *NonBlockingConn) traceStart() {
	if c.ct == nil {
		c.ct = c.cfg.Tracer.ConnBegin(c.telemetryID, c.role())
		if c.ct == nil {
			return // not sampled
		}
	} else if c.telemetryID != 0 {
		c.ct.SetConn(c.telemetryID)
	}
	c.traceHS = c.ct.Begin("handshake", trace.CatConn, 0)
}

// traceFinish closes the handshake span and folds the trace into the
// live anatomy profiler, setting the outcome Close will report.
// Failed handshakes finish the whole trace immediately; successful
// ones stay open for application I/O spans until Close. c.result is
// only read when err is nil.
func (c *NonBlockingConn) traceFinish(err error) {
	c.ct.End(c.traceHS, -1)
	if err != nil {
		c.traceOutcome = FailureReason(err)
		c.ct.Finish(c.traceOutcome)
		return
	}
	c.traceOutcome = "ok"
	detail := c.result.Suite.Name
	if c.result.Resumed {
		c.traceOutcome = "resumed"
		detail += " resumed"
	}
	c.ct.SetDetail(c.traceHS, detail)
	c.ct.Fold()
}
