package handshake

import (
	"sslperf/internal/probe"
	"sslperf/internal/record"
	"sslperf/internal/sslcrypto"
	"sslperf/internal/suite"
)

// ErrWouldBlock is re-exported from the record package: the FSM needs
// more wire bytes before it can make progress. Callers feed the
// record core and call Step again; no handshake state is lost.
var ErrWouldBlock = record.ErrWouldBlock

// RecordConn is the record-layer surface the handshake drives. Both
// halves of the split record layer implement it: *record.Layer (the
// blocking transport adapter — ReadRecord parks in the transport) and
// *record.Core (the sans-IO core — ReadRecord returns ErrWouldBlock
// until enough bytes are fed). The FSMs are written against this
// interface only, so one implementation serves ssl.Conn (over a
// Layer) and ssl.NonBlockingConn (over a Core) alike, and the two
// paths are byte-identical on the wire by construction.
//
// The handshake FSM never touches a transport: every read lands here
// and every write goes out as sealed records, which is what blocklint
// (make check) enforces mechanically.
type RecordConn interface {
	// ReadRecord returns the next opened record, or ErrWouldBlock on
	// a sans-IO core that has not been fed a complete record.
	ReadRecord() (record.ContentType, []byte, error)
	// WriteRecord seals data, fragmenting as needed.
	WriteRecord(typ record.ContentType, data []byte) error

	SetProtocolVersion(v uint16)
	SetPrimitives(cipher, mac string)
	SetWriteState(c suite.RecordCipher, m *sslcrypto.MAC)
	SetReadState(c suite.RecordCipher, m *sslcrypto.MAC)

	// ProbeBus/SetProbe expose the instrumentation spine so the FSM
	// can join the connection's bus (record crypto events and step
	// events must land on one spine for the anatomy to attribute the
	// encrypted finished messages).
	ProbeBus() *probe.Bus
	SetProbe(b *probe.Bus)
}

var (
	_ RecordConn = (*record.Layer)(nil)
	_ RecordConn = (*record.Core)(nil)
)
