package ssl

import (
	"testing"

	"sslperf/internal/probe"
)

// stepRecorder is a Config.Observer sink that keeps the step-boundary
// and crypto events it sees, in delivery order.
type stepRecorder struct {
	steps  []probe.Step // KindStepEnter sequence
	exits  []probe.Step // KindStepExit sequence
	crypto []string     // attributed crypto fns (incl. in-step record work)
}

// Observe implements probe.Observer.
func (r *stepRecorder) Observe() probe.Sink { return r }

// Emit implements probe.Sink.
func (r *stepRecorder) Emit(e probe.Event) {
	switch e.Kind {
	case probe.KindStepEnter:
		r.steps = append(r.steps, e.Step)
	case probe.KindStepExit:
		r.exits = append(r.exits, e.Step)
	case probe.KindCrypto:
		r.crypto = append(r.crypto, e.Fn)
	case probe.KindRecordCrypto:
		if e.Step != probe.StepNone {
			r.crypto = append(r.crypto, e.Op.StepFn())
		}
	}
}

// probeHandshake runs one full server handshake with a recording sink
// as Config.Observer and returns it.
func probeHandshake(t *testing.T) *stepRecorder {
	t.Helper()
	id := identity(t)
	scfg := id.ServerConfig(NewPRNG(91))
	rec := &stepRecorder{}
	scfg.Observer = rec
	ct, st := Pipe()
	client := ClientConn(ct, clientCfg(nil))
	server := ServerConn(st, scfg)
	errs := make(chan error, 1)
	go func() { errs <- client.Handshake() }()
	if err := server.Handshake(); err != nil {
		t.Fatalf("server handshake: %v", err)
	}
	if err := <-errs; err != nil {
		t.Fatalf("client handshake: %v", err)
	}
	client.Close()
	server.Close()
	return rec
}

// fullHandshakeSteps is the canonical step sequence of a full
// (non-resumed, RSA key exchange) server handshake.
var fullHandshakeSteps = []probe.Step{
	probe.StepInit,
	probe.StepGetClientHello,
	probe.StepSendServerHello,
	probe.StepSendServerCert,
	probe.StepSendServerDone,
	probe.StepGetClientKX,
	probe.StepGetFinished,
	probe.StepSendCipherSpec,
	probe.StepSendFinished,
	probe.StepServerFlush,
}

func stepsEqual(a, b []probe.Step) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestProbeFanOutIdenticalAttribution runs a full handshake with one
// recording observer and asserts its sink sees the canonical step
// sequence, exits mirroring enters, and the attributed crypto calls.
func TestProbeFanOutIdenticalAttribution(t *testing.T) {
	r := probeHandshake(t)
	if !stepsEqual(r.steps, fullHandshakeSteps) {
		t.Fatalf("sink saw steps %v, want %v", r.steps, fullHandshakeSteps)
	}
	if !stepsEqual(r.exits, fullHandshakeSteps) {
		t.Fatalf("sink exits %v do not mirror enters", r.exits)
	}
	if len(r.crypto) == 0 {
		t.Fatal("sink saw no crypto events")
	}
}

// TestProbeOffBusIsNil pins the fast path: with no observer, the
// connection never builds a bus, so the
// record layer and FSM run the sink-free nil-receiver path.
func TestProbeOffBusIsNil(t *testing.T) {
	id := identity(t)
	client, server := connect(t, clientCfg(nil), id.ServerConfig(NewPRNG(92)))
	defer client.Close()
	defer server.Close()
	if server.nb.bus != nil || server.nb.core.Probe != nil {
		t.Fatal("uninstrumented connection built a probe bus")
	}
}
