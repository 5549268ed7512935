package ssl

import (
	"testing"

	"sslperf/internal/probe"
)

// stepRecorder is a Config.Observers sink that keeps the step-boundary
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

// probeHandshake runs one full server handshake with n recording
// sinks on Config.Observers plus one more observer after them, and
// returns the n and the last.
func probeHandshake(t *testing.T, n int) ([]*stepRecorder, *stepRecorder) {
	t.Helper()
	id := identity(t)
	scfg := id.ServerConfig(NewPRNG(91))
	recs := make([]*stepRecorder, n)
	for i := range recs {
		recs[i] = &stepRecorder{}
		scfg.Observers = append(scfg.Observers, recs[i])
	}
	last := &stepRecorder{}
	scfg.Observers = append(scfg.Observers, last)
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
	return recs, last
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

// TestProbeFanOutIdenticalAttribution runs handshakes with 0, 1, and
// 3 user sinks and asserts every sink — and the observer after them on
// the same bus — sees the identical canonical step sequence.
func TestProbeFanOutIdenticalAttribution(t *testing.T) {
	var lasts []*stepRecorder
	for _, n := range []int{0, 1, 3} {
		recs, last := probeHandshake(t, n)
		lasts = append(lasts, last)
		for i, r := range recs {
			if !stepsEqual(r.steps, fullHandshakeSteps) {
				t.Fatalf("n=%d sink %d saw steps %v, want %v", n, i, r.steps, fullHandshakeSteps)
			}
			if !stepsEqual(r.exits, fullHandshakeSteps) {
				t.Fatalf("n=%d sink %d exits %v do not mirror enters", n, i, r.exits)
			}
			if len(r.crypto) == 0 {
				t.Fatalf("n=%d sink %d saw no crypto events", n, i)
			}
			// Every sink on the same bus sees byte-identical streams.
			if i > 0 {
				if !stepsEqual(r.steps, recs[0].steps) || len(r.crypto) != len(recs[0].crypto) {
					t.Fatalf("n=%d sink %d diverged from sink 0", n, i)
				}
				for j := range r.crypto {
					if r.crypto[j] != recs[0].crypto[j] {
						t.Fatalf("n=%d sink %d crypto[%d] = %q, sink 0 saw %q",
							n, i, j, r.crypto[j], recs[0].crypto[j])
					}
				}
			}
		}
	}
	// The last observer's view is identical no matter how many other
	// sinks share the bus.
	for i, last := range lasts {
		if len(last.steps) != len(fullHandshakeSteps) {
			t.Fatalf("run %d last observer has %d steps, want %d", i, len(last.steps), len(fullHandshakeSteps))
		}
		for j, st := range last.steps {
			if st.Name() != fullHandshakeSteps[j].Name() {
				t.Fatalf("run %d last observer step %d = %q, want %q",
					i, j, st.Name(), fullHandshakeSteps[j].Name())
			}
			if st.Name() != lasts[0].steps[j].Name() {
				t.Fatalf("last observer's step names diverge across sink counts")
			}
		}
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
