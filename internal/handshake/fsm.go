package handshake

import (
	"io"

	"sslperf/internal/probe"
	"sslperf/internal/record"
	"sslperf/internal/suite"
)

// The handshake is data. A plan is one role's path through it — full
// with RSA key exchange, full with DHE, or resumed — as a list of
// rows (serverPlans in server.go, clientPlans in client.go). A row
// names what it reads at its head, the handler that takes what was
// read, and the Table 2 step it belongs to. drive, below, is the one
// place either role reads the peer's handshake (make fsmlint): where
// a message is legal is decided by the plans alone.

// An input is what a row reads before its handler runs: a handshake
// message type from the message table, or one of these.
type input int16

const (
	none input = -1 // nothing: the row only computes and writes
	ccs  input = -2 // a ChangeCipherSpec record
)

// A row is one slice of a plan. Its handler is a method expression,
// so the plans are built once, statically, and a connection allocates
// nothing to walk them.
type row[S any] struct {
	in   input
	step probe.Step // the Table 2 step; StepNone on the client, which is not measured
	run  func(S, []byte) error
}

// A plan indexes a role's plans. Both roles start on planRSA, whose
// head every plan shares, and the handler of the hello the role reads
// (ClientHello on the server, ServerHello on the client) picks the
// plan through planFor.
type plan uint8

const (
	planRSA plan = iota
	planDHE
	planResumed
	numPlans
)

// planFor is the plan a hello selects.
func planFor(resumed bool, s *suite.Suite) plan {
	switch {
	case resumed:
		return planResumed
	case s.Kx == suite.KxDHERSA:
		return planDHE
	}
	return planRSA
}

// machine is what drive keeps for either role, and what both
// roles' handlers read: the caller's config (never written) and the
// connection's resolved randomness.
type machine struct {
	conn RecordConn
	bus  *probe.Bus // the connection's spine; only the server's rows enter steps on it
	msgs msgReader
	cfg  *Config
	rand io.Reader

	plan plan
	at   int        // the row to run next
	open probe.Step // probe step currently entered (StepNone between steps)
	err  error      // sticky terminal error
	res  *Result    // set by a plan's last row
}

// newMachine is a machine parked before its plan's first row, reading
// messages of at most maxBody bytes from conn. The record conn joins
// bus when it is on none yet, so the record-layer work of the
// encrypted finished messages lands on the same spine; it stays
// attached after the handshake (bulk-phase events carry StepNone).
func newMachine(conn RecordConn, cfg *Config, bus *probe.Bus, rand io.Reader, maxBody int) machine {
	if conn.ProbeBus() == nil {
		conn.SetProbe(bus)
	}
	return machine{conn: conn, bus: bus, msgs: msgReader{conn: conn, maxBody: maxBody}, cfg: cfg, rand: rand}
}

// drive runs s's plan from row m.at. A row's only suspension point is
// its leading read: it either returns ErrWouldBlock having done
// nothing but buffer partial records (safe to re-enter), or runs to
// completion exactly once — so crypto probe events are never emitted
// twice however often the machine resumes. Adjacent rows of one step
// (the CCS-read and finished-verify halves of get_finished) stay
// inside one StepEnter/StepExit pair, and the bus suspends rather than
// exits across ErrWouldBlock, so sinks see one Enter/Exit per step. A
// terminal error queues a fatal alert and sticks.
func drive[S any](m *machine, s S, plans *[numPlans][]row[S]) error {
	if m.err != nil {
		return m.err
	}
	if m.res != nil {
		return nil
	}
	// Re-entry after ErrWouldBlock: restart the suspended step's clock
	// (a no-op on first entry or a nil bus).
	m.bus.StepResume()
	for m.res == nil {
		r := &plans[m.plan][m.at]
		if r.step != m.open {
			// StepEnter closes the previous step first, so sinks see an
			// Exit-then-Enter stream.
			m.bus.StepEnter(r.step)
			m.open = r.step
		}
		msg, err := m.read(r.in)
		if err == nil {
			err = r.run(s, msg)
		}
		if err == ErrWouldBlock {
			m.bus.StepSuspend()
			return err
		}
		if err != nil {
			m.bus.StepExit()
			m.open = probe.StepNone
			m.err = err
			// Best effort: tell the peer before failing. Over a sans-IO
			// core this queues the alert for the caller's flush.
			m.conn.WriteRecord(record.TypeAlert, []byte{record.AlertLevelFatal, record.AlertHandshakeFailure})
			return err
		}
		m.at++
	}
	m.bus.StepExit()
	m.open = probe.StepNone
	return nil
}

// read does a row's leading read, returning a message's wire bytes
// (nil for a ChangeCipherSpec or no input).
func (m *machine) read(in input) ([]byte, error) {
	switch in {
	case none:
		return nil, nil
	case ccs:
		return nil, m.msgs.readCCS()
	}
	return m.msgs.expect(byte(in))
}
