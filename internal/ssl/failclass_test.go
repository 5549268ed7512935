package ssl

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"sslperf/internal/bn"
	"sslperf/internal/lifecycle"
	"sslperf/internal/probe"
	"sslperf/internal/record"
	"sslperf/internal/rsa"
	"sslperf/internal/suite"
	"sslperf/internal/telemetry"
	"sslperf/internal/x509lite"
)

// timeoutTransport fails every read with a net.Error timeout.
type timeoutTransport struct{}

type timeoutError struct{}

func (timeoutError) Error() string   { return "i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

func (timeoutTransport) Read(p []byte) (int, error)  { return 0, timeoutError{} }
func (timeoutTransport) Write(p []byte) (int, error) { return len(p), nil }
func (timeoutTransport) Close() error                { return nil }

// recordBoundaries returns the byte offset past each SSL record in a
// captured stream.
func recordBoundaries(t *testing.T, stream []byte) []int {
	t.Helper()
	var ends []int
	for off := 0; off < len(stream); {
		if off+5 > len(stream) {
			t.Fatalf("truncated record header at %d", off)
		}
		n := int(stream[off+3])<<8 | int(stream[off+4])
		off += 5 + n
		if off > len(stream) {
			t.Fatalf("record at %d overruns the stream", off)
		}
		ends = append(ends, off)
	}
	return ends
}

// observedServer runs a server handshake against transport with the
// full observability stack attached — telemetry registry, lifecycle
// table, close-log — then closes the connection so the close-log line
// flushes and the record retires.
func observedServer(t *testing.T, seed uint64, transport io.ReadWriteCloser) (error, *telemetry.Registry, *lifecycle.Table, *bytes.Buffer) {
	t.Helper()
	reg := telemetry.NewRegistry()
	var closeLog bytes.Buffer
	tab := lifecycle.NewTable(lifecycle.Options{
		Registry: reg,
		CloseLog: lifecycle.NewCloseLog(&closeLog, 1),
		Ring:     1,
	})
	cfg := identity(t).ServerConfig(NewPRNG(seed))
	cfg.Observer = tab
	server := ServerConn(transport, cfg)
	err := server.Handshake()
	server.Close()
	return err, reg, tab, &closeLog
}

// TestFailClassMapping drives the canonical failure scenarios end to
// end and asserts the telemetry fail-reason counter, the flight
// recorder's record, and the close-log line all carry the identical
// canonical tag.
func TestFailClassMapping(t *testing.T) {
	c2s, _ := captureStreams(t, 5001, 5002)
	ends := recordBoundaries(t, c2s)
	if len(ends) < 4 {
		t.Fatalf("captured %d client records, want >= 4 (hello, kx, ccs, finished)", len(ends))
	}

	cases := []struct {
		name      string
		transport func() io.ReadWriteCloser
		class     probe.FailClass
		tag       string
	}{
		{
			name:      "timeout",
			transport: func() io.ReadWriteCloser { return timeoutTransport{} },
			class:     probe.FailIOTimeout,
			tag:       "io_timeout",
		},
		{
			// The stream dies after ClientHello: the server is in step
			// 7 (get_client_kx) when the read comes up empty.
			name: "eof-mid-step7",
			transport: func() io.ReadWriteCloser {
				return &replayTransport{r: bytes.NewReader(c2s[:ends[0]])}
			},
			class: probe.FailIOEOF,
			tag:   "io_eof",
		},
		{
			// A ciphertext bit flip in the client's encrypted Finished
			// record: the server detects it locally as a MAC failure.
			name: "bad-mac",
			transport: func() io.ReadWriteCloser {
				mutated := append([]byte{}, c2s...)
				mutated[ends[len(ends)-1]-3] ^= 0x40
				return &replayTransport{r: bytes.NewReader(mutated)}
			},
			class: probe.FailBadMAC,
			tag:   "bad_mac",
		},
		{
			// The peer opens with a fatal handshake_failure alert.
			name: "peer-alert",
			transport: func() io.ReadWriteCloser {
				alert := []byte{21, 3, 0, 0, 2, 2, 40}
				return &replayTransport{r: bytes.NewReader(alert)}
			},
			class: probe.FailPeerAlert,
			tag:   "peer_alert:handshake_failure",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err, reg, tab, closeLog := observedServer(t, 5002, tc.transport())
			if err == nil {
				t.Fatal("handshake unexpectedly succeeded")
			}
			if got := Classify(err); got != tc.class {
				t.Fatalf("Classify(%v) = %v, want %v", err, got, tc.class)
			}
			if got := FailureReason(err); got != tc.tag {
				t.Fatalf("FailureReason(%v) = %q, want %q", err, got, tc.tag)
			}

			// Telemetry counted the failure under the tag.
			snap := reg.Snapshot()
			if snap.Handshakes.Failed != 1 || snap.Handshakes.FailReasons[tc.tag] != 1 {
				t.Fatalf("telemetry failed=%d reasons=%v, want 1 under %q",
					snap.Handshakes.Failed, snap.Handshakes.FailReasons, tc.tag)
			}

			// The flight recorder's record names the same tag.
			recs := tab.Records(0)
			if len(recs) != 1 || recs[0].FailTag != tc.tag || recs[0].FailClass != tc.class.Name() {
				t.Fatalf("flight recorder holds %+v, want one record failed as %q", recs, tc.tag)
			}
			if text := lifecycle.FlightText(recs); strings.Count(text, "handshake_fail "+tc.tag) != 1 {
				t.Fatalf("flight recorder text does not end the handshake as %q:\n%s", tc.tag, text)
			}

			// The close-log line speaks the same taxonomy.
			line := strings.TrimSpace(closeLog.String())
			if strings.Contains(line, "\n") {
				t.Fatalf("close-log emitted more than one line:\n%s", line)
			}
			var rec map[string]any
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("close-log line is not JSON: %v\n%s", err, line)
			}
			if rec["fail_class"] != tc.class.Name() || rec["fail_tag"] != tc.tag {
				t.Fatalf("close-log class=%v tag=%v, want %s/%s",
					rec["fail_class"], rec["fail_tag"], tc.class.Name(), tc.tag)
			}
			if rec["state"] != "failed" {
				t.Fatalf("close-log state %v, want failed", rec["state"])
			}
		})
	}
}

// TestClassifyTable pins the classifier over one representative error
// per class: the transport errors it decides itself, and typed errors
// whose site decided (TestPeerBytesFailClass drives the real sites
// end to end). failclasslint requires every probe.FailClass constant
// to appear here, so a new class cannot ship without deciding what
// maps onto it.
func TestClassifyTable(t *testing.T) {
	// A server with no key fails before it reads a byte: local
	// configuration, not the peer.
	noKey := NonBlockingServer(&Config{Rand: NewPRNG(1)}).HandshakeStep()
	cases := []struct {
		err   error
		class probe.FailClass
		tag   string
	}{
		{nil, probe.FailNone, "none"},
		{timeoutError{}, probe.FailIOTimeout, "io_timeout"},
		{os.ErrDeadlineExceeded, probe.FailIOTimeout, "io_timeout"},
		{io.EOF, probe.FailIOEOF, "io_eof"},
		{io.ErrUnexpectedEOF, probe.FailIOEOF, "io_eof"},
		{&record.AlertError{Level: record.AlertLevelFatal, Description: record.AlertHandshakeFailure, Peer: true},
			probe.FailPeerAlert, "peer_alert:handshake_failure"},
		{&record.AlertError{Level: record.AlertLevelFatal, Description: record.AlertBadRecordMAC},
			probe.FailBadMAC, "bad_mac"},
		{&record.AlertError{Level: record.AlertLevelFatal, Description: record.AlertUnexpectedMessage},
			probe.FailRecordError, "record_error"},
		{probe.Failf(probe.FailFinishedVerify, "handshake: server finished verification failed"), probe.FailFinishedVerify, "finished_verify"},
		{probe.Failf(probe.FailCertVerify, "handshake: chain link %d: %w", 1, errors.New("rsa: signature mismatch")), probe.FailCertVerify, "cert_verify"},
		{probe.Failf(probe.FailVersionMismatch, "handshake: client version %#04x too old", 2), probe.FailVersionMismatch, "version_mismatch"},
		{probe.Failf(probe.FailRecordError, "record: implausible record length %d", 0), probe.FailRecordError, "record_error"},
		{probe.Failf(probe.FailBadMessage, "handshake: expected ClientHello, got type %d", 7), probe.FailBadMessage, "bad_message"},
		// Wrapping keeps the class the site decided.
		{fmt.Errorf("serve: %w", probe.Fail(probe.FailBadMessage, errors.New("suite: no shared cipher suite"))), probe.FailBadMessage, "bad_message"},
		{noKey, probe.FailInternal, "internal"},
		{errors.New("something inexplicable"), probe.FailInternal, "internal"},
	}
	if noKey == nil || noKey.Error() != "handshake: server needs a key and certificate" {
		t.Fatalf("keyless server: %v", noKey)
	}
	for _, tc := range cases {
		name := "nil"
		if tc.err != nil {
			name = tc.err.Error()
		}
		if got := Classify(tc.err); got != tc.class {
			t.Errorf("Classify(%q) = %v, want %v", name, got, tc.class)
		}
		if got := FailureReason(tc.err); got != tc.tag {
			t.Errorf("FailureReason(%q) = %q, want %q", name, got, tc.tag)
		}
	}
}

// TestFailClassSuccessPath pins the zero value: a clean handshake
// classifies as FailNone and the close-log line carries no taxonomy.
func TestFailClassSuccessPath(t *testing.T) {
	if got := Classify(nil); got != probe.FailNone {
		t.Fatalf("Classify(nil) = %v", got)
	}
	var closeLog bytes.Buffer
	tab := lifecycle.NewTable(lifecycle.Options{
		CloseLog: lifecycle.NewCloseLog(&closeLog, 1),
	})
	serverCfg := identity(t).ServerConfig(NewPRNG(6001))
	serverCfg.Observer = tab
	client, server := connect(t, clientCfg(nil), serverCfg)
	client.Close()
	server.Close()

	var rec map[string]any
	if err := json.Unmarshal([]byte(strings.TrimSpace(closeLog.String())), &rec); err != nil {
		t.Fatalf("close-log line: %v", err)
	}
	if _, has := rec["fail_class"]; has {
		t.Fatalf("successful close carries fail_class: %v", rec)
	}
	if rec["suite"] == "" || rec["state"] != "closed" {
		t.Fatalf("successful close line %v", rec)
	}
	if tab.Snapshot(lifecycle.SnapshotOptions{}).Failed != 0 {
		t.Fatal("table counted a failure on the success path")
	}
}

// TestEvenModulusCertificate hands the client a certificate whose RSA
// modulus is even (the server's N plus one), which no Montgomery
// context accepts. The public op takes ModExp's division path for it,
// so the handshake ends in a classified failure, not a panic: with
// verification on, the certificate's self-signature does not check;
// with it off, the pre-master the client encrypts under the bogus key
// decrypts to garbage, and the server's MAC check fails.
func TestEvenModulusCertificate(t *testing.T) {
	id := identity(t)
	even := &rsa.PublicKey{N: bn.New().AddWord(id.Key.N, 1), E: id.Key.E}
	now := time.Now()
	cert, err := x509lite.Create(NewPRNG(7), "ssl-test", even, "ssl-test", id.Key,
		now.Add(-time.Hour), now.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		verify bool
		class  probe.FailClass
	}{
		{"verify", true, probe.FailCertVerify},
		{"skip-verify", false, probe.FailPeerAlert},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ct, st := Pipe()
			client := ClientConn(ct, &Config{
				Rand:               NewPRNG(8),
				Suites:             []suite.ID{suite.RSAWith3DESEDECBCSHA},
				InsecureSkipVerify: !tc.verify,
			})
			server := ServerConn(st, &Config{Rand: NewPRNG(9), Key: id.Key, CertDER: cert.Raw})
			go func() {
				server.Handshake()
				server.Close()
			}()
			err := client.Handshake()
			client.Close()
			if got := Classify(err); got != tc.class {
				t.Fatalf("client handshake error %v classified %v, want %v", err, got, tc.class)
			}
		})
	}
}
