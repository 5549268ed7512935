package ssl

import (
	"time"

	"sslperf/internal/telemetry"
)

// telemetryStart assigns a connection ID and records the
// handshake_start event. The step/crypto/record flow itself arrives
// through the telemetry probe sink armProbes attaches.
func (c *NonBlockingConn) telemetryStart(reg *telemetry.Registry) {
	c.telemetryID = reg.ConnOpen()
	reg.Event(c.telemetryID, telemetry.EventHandshakeStart, "", c.role(), 0)
}

// telemetryFinish records the outcome of a handshake attempt: the
// outcome counters, the latency histograms, the per-step histograms
// (server side, from the anatomy the FSM just filled), and the
// terminal flight-recorder event. c.result is only read when err is
// nil.
func (c *NonBlockingConn) telemetryFinish(reg *telemetry.Registry, d time.Duration, err error) {
	if err != nil {
		reason := FailureReason(err)
		reg.HandshakeFailed(reason)
		reg.Event(c.telemetryID, telemetry.EventHandshakeFail, reason, err.Error(), d)
		return
	}
	reg.HandshakeDone(c.result.Suite.Name, c.result.Session.Version, c.result.Resumed, d)
	if c.anatomy != nil {
		for _, step := range c.anatomy.Steps {
			reg.ObserveStep(step.Name, step.Elapsed)
		}
	}
	detail := c.result.Suite.Name
	if c.result.Resumed {
		detail += " resumed"
	}
	reg.Event(c.telemetryID, telemetry.EventHandshakeDone, "", detail, d)
}
