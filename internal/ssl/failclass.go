package ssl

import (
	"errors"
	"io"
	"net"
	"os"

	"sslperf/internal/probe"
	"sslperf/internal/record"
)

// Classify maps a handshake/connection error onto the canonical
// probe.FailClass taxonomy. Every error-reporting surface — the
// telemetry FailReasons counters, the flight recorder, the lifecycle
// close-log, sslserver's failure lines — classifies through this one
// function, so the same broken handshake carries the same class
// everywhere. It decides only the transport cases (alerts, timeouts,
// EOF and other network errors); every protocol failure's class was
// decided where its error was made, and is read off the
// *probe.FailError. An error no site classified is FailInternal.
func Classify(err error) probe.FailClass {
	if err == nil {
		return probe.FailNone
	}
	var ae *record.AlertError
	if errors.As(err, &ae) {
		if ae.Peer {
			return probe.FailPeerAlert
		}
		if ae.Description == record.AlertBadRecordMAC {
			return probe.FailBadMAC
		}
		return probe.FailRecordError
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() || errors.Is(err, os.ErrDeadlineExceeded) {
		return probe.FailIOTimeout
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return probe.FailIOEOF
	}
	var oe *net.OpError
	if errors.As(err, &oe) {
		// Non-timeout transport errors (reset, broken pipe): the peer
		// or the network went away.
		return probe.FailIOEOF
	}
	var fe *probe.FailError
	if errors.As(err, &fe) {
		return fe.Class
	}
	return probe.FailInternal
}

// FailureReason returns the stable, low-cardinality failure tag for
// err: the fail class's canonical name, refined with the alert name
// when the peer said why (peer_alert:bad_record_mac, ...). Telemetry
// counters, the close-log, and cmd/sslserver all tag through it so
// counters and logs agree.
func FailureReason(err error) string {
	class := Classify(err)
	if class == probe.FailPeerAlert {
		var ae *record.AlertError
		if errors.As(err, &ae) {
			return class.Name() + ":" + record.AlertName(ae.Description)
		}
	}
	return class.Name()
}
