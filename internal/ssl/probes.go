package ssl

import (
	"time"

	"sslperf/internal/probe"
	"sslperf/internal/record"
)

// open offers the connection to Config.Observers, once, and opens its
// event stream on the sinks they answer with. With none configured,
// or every one declining, the bus stays nil and every hook downstream
// is a nil-receiver no-op.
func (c *NonBlockingConn) open() {
	if c.opened {
		return
	}
	c.opened = true
	for _, o := range c.cfg.Observers {
		if s := o.Observe(); s != nil {
			c.sinks = append(c.sinks, s)
		}
	}
	c.refreshBus()
	c.bus.ConnOpen(c.role(), c.remote)
}

// refreshBus rebuilds the connection's bus, on the same connection ID,
// from the observers' sinks plus the anatomy fold and the bulk-crypto
// observer, and points the record core at it.
func (c *NonBlockingConn) refreshBus() {
	sinks := c.sinks[:len(c.sinks):len(c.sinks)]
	if c.anatomy != nil {
		sinks = append(sinks, c.anatomy)
	}
	if c.cryptoObs != nil {
		sinks = append(sinks, bulkCryptoSink{fn: c.cryptoObs})
	}
	c.bus = c.bus.Over(sinks...)
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
