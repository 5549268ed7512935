package ssl

import "sslperf/internal/probe"

// open offers the connection to Config.Observers, once, and opens its
// event stream on the sinks they answer with. With none configured,
// or every one declining, the bus stays nil and every hook downstream
// is a nil-receiver no-op.
func (c *NonBlockingConn) open() {
	if c.opened {
		return
	}
	c.opened = true
	var sinks []probe.Sink
	for _, o := range c.cfg.Observers {
		if s := o.Observe(); s != nil {
			sinks = append(sinks, s)
		}
	}
	c.bus = probe.NewBus(sinks...)
	c.core.SetProbe(c.bus)
	c.bus.ConnOpen(c.role(), c.remote)
}
