// Package record implements the SSL 3.0 record layer: framing,
// fragmentation, MAC computation/verification, CBC padding, and
// encryption state management. Every byte of the paper's bulk data
// transfer phase flows through this layer — one MAC and one cipher
// pass per record, exactly the work the paper's crypto-engine sketch
// (Figure 6) wants to overlap.
package record

import (
	"errors"
	"fmt"
	"io"

	"sslperf/internal/probe"
	"sslperf/internal/sslcrypto"
	"sslperf/internal/suite"
)

// ContentType is the record content type.
type ContentType byte

// SSLv3 record content types.
const (
	TypeChangeCipherSpec ContentType = 20
	TypeAlert            ContentType = 21
	TypeHandshake        ContentType = 22
	TypeApplicationData  ContentType = 23
)

// String names the content type.
func (t ContentType) String() string {
	switch t {
	case TypeChangeCipherSpec:
		return "change_cipher_spec"
	case TypeAlert:
		return "alert"
	case TypeHandshake:
		return "handshake"
	case TypeApplicationData:
		return "application_data"
	}
	return fmt.Sprintf("content_type(%d)", byte(t))
}

// Protocol wire versions.
const (
	// VersionSSL30 is SSL 3.0, the paper's protocol.
	VersionSSL30 uint16 = 0x0300
	// VersionTLS10 is TLS 1.0 (RFC 2246), the successor the paper's
	// background mentions; supported as an extension.
	VersionTLS10 uint16 = 0x0301
)

// Version is the SSL 3.0 wire version (kept as the package default).
const Version = VersionSSL30

// MaxFragment is the maximum plaintext fragment length (2^14).
const MaxFragment = 16384

// headerLen is the record header size: type(1) version(2) length(2).
const headerLen = 5

// Alert levels and descriptions (the subset SSLv3 defines that this
// library emits or interprets).
const (
	AlertLevelWarning = 1
	AlertLevelFatal   = 2

	AlertCloseNotify        = 0
	AlertUnexpectedMessage  = 10
	AlertBadRecordMAC       = 20
	AlertHandshakeFailure   = 40
	AlertNoCertificate      = 41
	AlertBadCertificate     = 42
	AlertCertificateExpired = 45
	AlertIllegalParameter   = 47
)

// AlertError is an alert surfaced as an error: either one the peer
// sent on the wire (Peer=true) or one this end synthesized on a local
// integrity failure (Peer=false — the bad-MAC/bad-padding cases,
// which the caller turns into an outbound bad_record_mac alert). The
// flag is what lets the failure taxonomy tell "the peer told us why"
// apart from "we caught corruption ourselves".
type AlertError struct {
	Level       byte
	Description byte
	Peer        bool
}

// AlertName returns the protocol name of an alert description code,
// or "alert(N)" for codes this library does not define. Telemetry
// uses it as a stable counter tag.
func AlertName(desc byte) string {
	switch desc {
	case AlertCloseNotify:
		return "close_notify"
	case AlertUnexpectedMessage:
		return "unexpected_message"
	case AlertBadRecordMAC:
		return "bad_record_mac"
	case AlertHandshakeFailure:
		return "handshake_failure"
	case AlertNoCertificate:
		return "no_certificate"
	case AlertBadCertificate:
		return "bad_certificate"
	case AlertCertificateExpired:
		return "certificate_expired"
	case AlertIllegalParameter:
		return "illegal_parameter"
	}
	return fmt.Sprintf("alert(%d)", desc)
}

// Error renders the alert.
func (a *AlertError) Error() string {
	lvl := "warning"
	if a.Level == AlertLevelFatal {
		lvl = "fatal"
	}
	return fmt.Sprintf("ssl: %s alert: %s", lvl, AlertName(a.Description))
}

// ErrClosed is returned after a close_notify alert has been received.
var ErrClosed = errors.New("record: connection closed by close_notify")

// halfState is one direction's cryptographic state.
type halfState struct {
	cipher suite.RecordCipher
	mac    *sslcrypto.MAC
	seq    uint64
}

// active reports whether encryption is enabled in this direction.
func (h *halfState) active() bool { return h.cipher != nil }

// Stats counts record-layer activity for the experiments.
type Stats struct {
	RecordsRead    int
	RecordsWritten int
	BytesRead      int // plaintext payload bytes
	BytesWritten   int
	AlertsRead     int
	AlertsWritten  int

	// WriteCalls counts the transport writes a Layer issued.
	// WriteCalls/RecordsWritten is the syscalls-per-record
	// amortization: 1 for writes up to a record, 1/64 once a bulk write
	// fills its windows.
	WriteCalls int
}

// CryptoOp identifies a record-layer crypto operation for observers.
// It is the probe spine's RecordOp; the alias keeps the historical
// record-layer API intact.
type CryptoOp = probe.RecordOp

// Observable record-layer crypto operations.
const (
	OpCipherEncrypt = probe.OpCipherEncrypt
	OpCipherDecrypt = probe.OpCipherDecrypt
	OpMACCompute    = probe.OpMACCompute
	OpMACVerify     = probe.OpMACVerify
)

// A Layer frames records over a blocking stream: the sans-IO Core
// (framing, MAC, padding, cipher state, sequence numbers, buffers)
// plus the transport pump — the single place a connection blocks. The
// embedded Core's fields and state setters are promoted; Layer shadows
// only ReadRecord and WriteRecord, to move the Core's buffers from and
// to the transport, so blocking and non-blocking connections execute
// the same sealing and opening code. Not safe for concurrent use; the
// ssl package serializes access.
type Layer struct {
	Core
	rw io.ReadWriter
}

// NewLayer wraps rw in a record layer with NULL security (the state
// before ChangeCipherSpec).
func NewLayer(rw io.ReadWriter) *Layer {
	return &Layer{rw: rw}
}

// WriteRecord sends data of the given type, fragmenting as needed:
// the Core seals a window of up to windowRecords records into its
// outgoing buffer and the window leaves in one transport Write, so a
// record costs one write and a 1 MiB response two, not 65. A failed
// Write surfaces the transport's error; what was sealed is dropped
// with the connection.
func (l *Layer) WriteRecord(typ ContentType, data []byte) (err error) {
	const window = windowRecords * MaxFragment
	for first := true; err == nil && (first || len(data) > 0); first = false {
		n := min(len(data), window)
		l.Core.WriteRecord(typ, data[:n])
		_, err = l.rw.Write(l.outgoing)
		l.Stats.WriteCalls++
		l.outgoing = l.outgoing[:0]
		data = data[n:]
	}
	l.ConsumeOutgoing(0) // drained: a window goes back to the pool
	return err
}

// WriteFlight is WriteRecord — named by bench/probes.go; deleted by
// the benchmark-only PR of ROADMAP 4(i).
func (l *Layer) WriteFlight(typ ContentType, data []byte) error {
	return l.WriteRecord(typ, data)
}

// BuffersWriter is unused — named by bench/probes.go; deleted by the
// benchmark-only PR of ROADMAP 4(i).
type BuffersWriter interface {
	WriteBuffers(bufs [][]byte) (int64, error)
}

// ReadRecord reads and opens the next record, returning its type and
// plaintext payload: Core.ReadRecord, and wherever the Core would
// return ErrWouldBlock one blocking transport Read straight into
// incoming's spare capacity — grown, when short, to hold the missing
// bytes the parsed header asks for — so whatever else has already
// arrived comes along in the same read. It returns io.EOF when the
// stream ends at a record boundary and io.ErrUnexpectedEOF when it
// ends inside a record.
//
// The returned payload aliases the incoming buffer and is valid only
// until the next ReadRecord call — callers that need it longer must
// copy. (The handshake message reader copies, and the ssl Conn drains
// its buffer before reading again, so within this stack the aliasing
// is free.)
func (l *Layer) ReadRecord() (ContentType, []byte, error) {
	for {
		typ, payload, missing, err := l.readRecord()
		if err != ErrWouldBlock {
			return typ, payload, err
		}
		l.compactIncoming()
		have := len(l.incoming)
		if cap(l.incoming) < have+missing {
			l.incoming = append(make([]byte, 0, have+missing), l.incoming...)
		}
		n, err := l.rw.Read(l.incoming[have:cap(l.incoming)])
		l.incoming = l.incoming[:have+n]
		if n == 0 && err != nil {
			if err == io.EOF && have > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, err
		}
	}
}
