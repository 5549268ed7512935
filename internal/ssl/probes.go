package ssl

import "sslperf/internal/probe"

// open offers the connection to Config.Observer, once, and opens its
// event stream on the sink it answers with. With no observer, or one
// that declines, the bus stays nil and every hook downstream is a
// nil-receiver no-op.
func (c *NonBlockingConn) open() {
	if c.opened {
		return
	}
	c.opened = true
	if o := c.cfg.Observer; o != nil {
		c.bus = probe.NewBus(o.Observe())
	}
	c.core.SetProbe(c.bus)
	c.bus.ConnOpen(c.role(), c.remote)
}
