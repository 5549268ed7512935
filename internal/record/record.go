// Package record implements the SSL 3.0 record layer: framing,
// fragmentation, MAC computation/verification, CBC padding, and
// encryption state management. Every byte of the paper's bulk data
// transfer phase flows through this layer — one MAC and one cipher
// pass per record, the work the paper's crypto-engine sketch (Figure
// 6) overlaps; on a CPU with AES-NI and the SHA extensions an
// AES128/256-SHA record is sealed with the two in one pass
// (internal/aessha1).
package record

import (
	"fmt"
	"io"

	"sslperf/internal/aes"
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

// halfState is one direction's cryptographic state.
type halfState struct {
	cipher suite.RecordCipher
	mac    *sslcrypto.MAC
	seq    uint64

	// aes and iv are the AES cipher and live CBC chaining value behind
	// an AES-CBC write cipher whose MAC is SHA-1 (suite.AESCBC) — the
	// pair the stitched seal runs — and nil otherwise. stitched selects
	// that form; SetWriteState sets it where cpufeat.X86 holds both AES
	// and SHA, so every other host, suite and direction seals in two
	// passes.
	aes      *aes.Cipher
	iv       []byte
	stitched bool
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

	// WriteCalls counts the transport writes a Layer issued (Flush):
	// ssl.Conn flushes once per call into the machine, so a handshake
	// costs one per flight and an application write one per window.
	WriteCalls int
	// ReadCalls counts the transport reads a Layer issued (Fill). The
	// first takes up to firstRead bytes, so a whole flight that has
	// arrived costs one.
	ReadCalls int
}

// PrimAESSHA1 names the primitive of a stitched seal's one
// KindRecordCrypto event: AES-CBC and the SHA-1 MAC in one pass, whose
// time is not split between them.
const PrimAESSHA1 = "AES+SHA-1"

// A Layer pumps a blocking transport around the sans-IO Core
// (framing, MAC, padding, cipher state, sequence numbers, buffers),
// which it embeds: every method that seals or opens a record is the
// Core's, promoted, and Layer adds only the transport — Flush writes
// what the Core has sealed, Fill reads what it asks for. ssl.Conn
// drives the one connection state machine over the Core and calls
// these two whenever the machine has output or returns ErrWouldBlock,
// so blocking and sans-IO connections run the same code up to the
// transport. A transport that fails, either way, ends the Core's
// input: its ReadRecord then returns that error where it would have
// returned ErrWouldBlock, so the machine ends on it as on any terminal
// error. Not safe for concurrent use; the ssl package serializes
// access.
type Layer struct {
	Core
	rw io.ReadWriter
}

// firstRead is the least incoming grows to when it must grow: enough
// for a ClientHello, a client's ChangeCipherSpec + Finished or a
// server's first flight with a 1024-bit certificate (≈ 860 B) to
// arrive in one transport Read, instead of a 5-byte header read and
// then exactly the record.
const firstRead = 1024

// NewLayer wraps rw in a record layer with NULL security (the state
// before ChangeCipherSpec).
func NewLayer(rw io.ReadWriter) *Layer {
	return &Layer{rw: rw}
}

// Flush is the Layer's one transport Write: everything sealed and not
// yet sent, in one call. The buffer goes back to its pool whether or
// not the Write succeeds; a failed Write returns the transport's error
// and ends the input, and what was sealed is dropped with the
// connection.
func (l *Layer) Flush() error {
	if len(l.Outgoing()) == 0 {
		return nil
	}
	_, err := l.rw.Write(l.Outgoing())
	l.Stats.WriteCalls++
	l.ConsumeOutgoing(len(l.Outgoing()))
	return l.end(err)
}

// Fill is the Layer's one transport Read, made when the Core has
// returned ErrWouldBlock: straight into incoming's spare capacity,
// grown, when short, to hold the missing bytes the buffered header
// asks for and at least firstRead, so whatever else has already
// arrived comes along in the same read. It returns io.EOF when the
// stream ends at a record boundary and io.ErrUnexpectedEOF when it
// ends inside a record; either, or any other failure, ends the input.
func (l *Layer) Fill() error {
	if l.inErr != nil {
		return l.inErr
	}
	l.compactIncoming()
	have := len(l.incoming)
	if need := have + l.missing(); cap(l.incoming) < need {
		l.incoming = append(make([]byte, 0, max(need, firstRead)), l.incoming...)
	}
	n, err := l.rw.Read(l.incoming[have:cap(l.incoming)])
	l.Stats.ReadCalls++
	l.incoming = l.incoming[:have+n]
	if n == 0 && err != nil {
		if err == io.EOF && have > 0 {
			err = io.ErrUnexpectedEOF
		}
		return l.end(err)
	}
	return nil
}

// end records err, when it is the transport's first failure, as the
// end of the input, and returns it.
func (l *Layer) end(err error) error {
	if l.inErr == nil {
		l.inErr = err
	}
	return err
}

// WriteFlight seals data and flushes it: one transport Write, whatever
// its width — named by bench/probes.go; deleted by the benchmark-only
// PR of ROADMAP 6(0).
func (l *Layer) WriteFlight(typ ContentType, data []byte) error {
	l.WriteRecord(typ, data)
	return l.Flush()
}

// BuffersWriter is unused — named by bench/probes.go; deleted by the
// benchmark-only PR of ROADMAP 6(0).
type BuffersWriter interface {
	WriteBuffers(bufs [][]byte) (int64, error)
}
