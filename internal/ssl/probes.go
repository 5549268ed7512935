package ssl

import (
	"sslperf/internal/handshake"
	"sslperf/internal/probe"
	"sslperf/internal/record"
	"sslperf/internal/telemetry"
	"sslperf/internal/trace"
	"time"
)

// armProbes assembles the connection's probe bus for the handshake
// about to run: the anatomy fold (server side), the telemetry and
// trace sink shims when those channels are configured, any
// user-supplied Config.Probes, and the bulk-crypto observer. With
// nothing attached the bus stays nil and every hook downstream is a
// nil-receiver no-op. Called after telemetryStart and traceStart have
// assigned the connection ID and handshake span.
func (c *NonBlockingConn) armProbes(reg *telemetry.Registry) {
	if !c.isClient && reg != nil && c.anatomy == nil {
		// Telemetry's per-step latency histograms are folded from the
		// anatomy at handshake finish, so a server connection under a
		// registry always records one.
		c.anatomy = handshake.NewAnatomy()
	}
	sinks := make([]probe.Sink, 0, 4+len(c.cfg.Probes))
	if c.anatomy != nil {
		sinks = append(sinks, c.anatomy)
	}
	if reg != nil {
		sinks = append(sinks, telemetry.ProbeSink(reg, c.telemetryID))
	}
	if c.ct != nil {
		sinks = append(sinks, trace.ProbeSink(c.ct, c.traceHS))
	}
	if c.lc != nil {
		sinks = append(sinks, c.lc)
	}
	sinks = append(sinks, c.cfg.Probes...)
	c.baseSinks = sinks
	c.refreshBus()
}

// refreshBus rebuilds the connection's bus from the armed base sinks
// plus the bulk-crypto observer and points the record core at it.
func (c *NonBlockingConn) refreshBus() {
	sinks := c.baseSinks
	if c.cryptoObs != nil {
		sinks = append(sinks[:len(sinks):len(sinks)], bulkCryptoSink{fn: c.cryptoObs})
	}
	c.bus = probe.NewBus(sinks...)
	c.core.SetProbe(c.bus)
}

// bulkCryptoSink adapts a SetCryptoObserver callback to the spine:
// only bulk-phase record crypto (outside any handshake step) is
// forwarded, matching the pre-spine behavior where the handshake FSM
// claimed the finished-message work for Table 2.
type bulkCryptoSink struct {
	fn func(op record.CryptoOp, bytes int, d time.Duration)
}

// Emit implements probe.Sink.
func (s bulkCryptoSink) Emit(e probe.Event) {
	if e.Kind != probe.KindRecordCrypto || e.Step != probe.StepNone {
		return
	}
	s.fn(e.Op, e.Bytes, e.Dur)
}
