package probe

import "fmt"

// FailClass is the canonical taxonomy of connection/handshake failure
// causes — the one vocabulary every surface speaks. The telemetry
// FailReasons counters, the flight recorder's handshake_fail events,
// the lifecycle close-log, and sslserver's failure lines all derive
// their tags from a FailClass, so "why did the last 500 handshakes
// fail" has the same answer whichever surface is asked.
//
// A class is decided where the error is made: internal/handshake and
// internal/record return a *FailError wherever they know the cause,
// and ssl.Classify reads the class off it (adding only the transport
// cases — alerts, timeouts, EOF — that no protocol site makes). The
// enum and the error live here on the spine so sinks can consume them
// without importing the protocol layers.
type FailClass uint8

// Failure classes. Every constant must have a row in failClassInfo
// (make failclasslint and TestFailClassesNamed enforce it) and a case
// in the internal/ssl mapping test.
const (
	// FailNone is the zero value: no failure (a clean close).
	FailNone FailClass = iota
	// FailIOTimeout is a transport deadline/timeout expiring mid-flow.
	FailIOTimeout
	// FailIOEOF is the peer (or network) vanishing: EOF or an
	// unexpected EOF mid-message.
	FailIOEOF
	// FailPeerAlert is a fatal alert the peer sent; the tag carries
	// the alert name (peer_alert:bad_record_mac, ...).
	FailPeerAlert
	// FailBadMAC is a locally detected record MAC or CBC padding
	// failure — corruption or tampering on the wire.
	FailBadMAC
	// FailCertVerify is a server certificate that does not parse or
	// verify: its DER, chain, validity or name, or the
	// ServerKeyExchange signature its key must check.
	FailCertVerify
	// FailVersionMismatch is a protocol version the peer and we could
	// not agree on (hello version too old, record version drift). A
	// pre-master version rollback is deliberately not one: step 7
	// never reports what it decrypted, so it surfaces as FailBadMAC.
	FailVersionMismatch
	// FailFinishedVerify is a Finished verify-data mismatch: the
	// transcripts disagree.
	FailFinishedVerify
	// FailBadMessage is a malformed, unexpected, or unparseable
	// protocol message — DH parameters or a public value out of range,
	// a hello that offers nothing this side accepts and a resumed
	// session that changes suite among them.
	FailBadMessage
	// FailRecordError is a record-layer framing error (implausible
	// length, non-block-multiple ciphertext, ...).
	FailRecordError
	// FailInternal is everything else: local configuration (no key or
	// certificate, no randomness), resource or logic errors, and any
	// error no site classified — our fault, not the peer's.
	FailInternal

	failClassCount
)

// failClassInfo names each class. Tags are snake_case so they can be
// counter keys, JSON field values, and grep targets unchanged.
var failClassInfo = [failClassCount]string{
	FailNone:            "none",
	FailIOTimeout:       "io_timeout",
	FailIOEOF:           "io_eof",
	FailPeerAlert:       "peer_alert",
	FailBadMAC:          "bad_mac",
	FailCertVerify:      "cert_verify",
	FailVersionMismatch: "version_mismatch",
	FailFinishedVerify:  "finished_verify",
	FailBadMessage:      "bad_message",
	FailRecordError:     "record_error",
	FailInternal:        "internal",
}

// Name returns the class's canonical snake_case tag.
func (c FailClass) Name() string {
	if c >= failClassCount {
		return fmt.Sprintf("fail_class(%d)", uint8(c))
	}
	return failClassInfo[c]
}

// String implements fmt.Stringer.
func (c FailClass) String() string { return c.Name() }

// FailClasses returns every class in declaration order, FailNone
// first — the iteration surface for lints and renderers.
func FailClasses() []FailClass {
	out := make([]FailClass, 0, failClassCount)
	for c := FailClass(0); c < failClassCount; c++ {
		out = append(out, c)
	}
	return out
}

// A FailError is an error whose FailClass its site decided. Its text
// is the wrapped error's, so wrapping changes no message.
type FailError struct {
	Class FailClass
	Err   error
}

func (e *FailError) Error() string { return e.Err.Error() }

// Unwrap returns the wrapped error.
func (e *FailError) Unwrap() error { return e.Err }

// Fail returns err as a failure of class c, or nil when err is nil.
func Fail(c FailClass, err error) error {
	if err == nil {
		return nil
	}
	return &FailError{Class: c, Err: err}
}

// Failf returns a new failure of class c with fmt.Errorf's text (%w
// wraps as it does there).
func Failf(c FailClass, format string, args ...any) error {
	return &FailError{Class: c, Err: fmt.Errorf(format, args...)}
}
