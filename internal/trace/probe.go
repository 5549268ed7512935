package trace

import (
	"fmt"

	"sslperf/internal/probe"
)

// engineSink folds engine-span events into the tracer's engine ring.
type engineSink struct {
	t *Tracer
}

// EngineSink returns the probe sink that records engine spans (e.g.
// executed RSA batches) on t, or nil when t is nil.
func EngineSink(t *Tracer) probe.Sink {
	if t == nil {
		return nil
	}
	return engineSink{t: t}
}

// Emit implements probe.Sink.
func (s engineSink) Emit(e probe.Event) {
	if e.Kind != probe.KindEngineSpan {
		return
	}
	s.t.EngineSpan(e.Fn, fmt.Sprintf("size=%d", e.Value), e.At, e.Dur, e.Links)
}
