package record

import (
	"bytes"
	"errors"
	"io"
	"runtime/debug"
	"sslperf/internal/probe"
	"strings"
	"testing"

	"sslperf/internal/sslcrypto"
	"sslperf/internal/suite"
	"sslperf/internal/testenv"
)

// oneWay builds a sender and receiver layer sharing one buffer.
func oneWay() (*Layer, *Layer, *bytes.Buffer) {
	buf := &bytes.Buffer{}
	type rw struct {
		io.Reader
		io.Writer
	}
	sender := NewLayer(rw{Reader: strings.NewReader(""), Writer: buf})
	receiver := NewLayer(rw{Reader: buf, Writer: io.Discard})
	return sender, receiver, buf
}

// keyed is either flavour of record conn: a *Core or a *Layer.
type keyed interface {
	SetWriteState(suite.RecordCipher, *sslcrypto.MAC)
	SetReadState(suite.RecordCipher, *sslcrypto.MAC)
	SetProtocolVersion(uint16)
}

// arm installs matching cipher/MAC state for one direction, with the
// SSL 3.0 MAC and the version left unpinned.
func arm(t testing.TB, s *suite.Suite, sender, receiver keyed) {
	t.Helper()
	armVersion(t, s, 0, sender, receiver)
}

// armVersion is arm that, for TLS 1.0, pins the version on both ends
// and keys them with the HMAC form of the record MAC.
func armVersion(t testing.TB, s *suite.Suite, version uint16, sender, receiver keyed) {
	t.Helper()
	key := make([]byte, s.KeyLen)
	iv := make([]byte, s.IVLen)
	macSecret := make([]byte, s.MACLen())
	for i := range key {
		key[i] = byte(i + 1)
	}
	for i := range iv {
		iv[i] = byte(i + 7)
	}
	for i := range macSecret {
		macSecret[i] = byte(i + 13)
	}
	wc, err := s.NewCipher(key, iv, true)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := s.NewCipher(key, iv, false)
	if err != nil {
		t.Fatal(err)
	}
	newMAC := func() *sslcrypto.MAC {
		m, err := s.NewMAC(macSecret)
		if version >= VersionTLS10 {
			m, err = sslcrypto.NewTLSMAC(s.MAC, macSecret, version)
		}
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if version != 0 {
		sender.SetProtocolVersion(version)
		receiver.SetProtocolVersion(version)
	}
	sender.SetWriteState(wc, newMAC())
	receiver.SetReadState(rc, newMAC())
}

func TestPlaintextRoundTrip(t *testing.T) {
	sender, receiver, _ := oneWay()
	msg := []byte("hello, handshake")
	if err := sender.WriteRecord(TypeHandshake, msg); err != nil {
		t.Fatal(err)
	}
	typ, got, err := receiver.ReadRecord()
	if err != nil {
		t.Fatal(err)
	}
	if typ != TypeHandshake || !bytes.Equal(got, msg) {
		t.Fatalf("got %v %q", typ, got)
	}
}

func TestAllSuitesRoundTrip(t *testing.T) {
	for _, s := range suite.All() {
		t.Run(s.Name, func(t *testing.T) {
			sender, receiver, _ := oneWay()
			arm(t, s, sender, receiver)
			for i, msg := range [][]byte{
				[]byte("first record"),
				[]byte(""),
				bytes.Repeat([]byte{0xab}, 1000),
				[]byte("x"),
			} {
				if err := sender.WriteRecord(TypeApplicationData, msg); err != nil {
					t.Fatalf("write %d: %v", i, err)
				}
				typ, got, err := receiver.ReadRecord()
				if err != nil {
					t.Fatalf("read %d: %v", i, err)
				}
				if typ != TypeApplicationData || !bytes.Equal(got, msg) {
					t.Fatalf("record %d corrupted", i)
				}
			}
		})
	}
}

// TestSealOpenSteadyStateAllocs pins the pooled-buffer record path for
// a stream suite and both block ciphers, under the SSL 3.0 MAC and the
// TLS 1.0 HMAC: once warm, sealing a full-size record allocates at most
// once (the sync.Pool interface box; 0 measured) and opening it not at
// all. A fresh MaxFragment buffer, MAC scratch or CBC chaining block
// per record would show up here.
func TestSealOpenSteadyStateAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("race runtime allocates on sync paths")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, name := range []string{"RC4-MD5", "DES-CBC3-SHA", "AES128-SHA"} {
		for _, version := range []uint16{VersionSSL30, VersionTLS10} {
			s, _ := suite.ByName(name)
			payload := payloadOf(MaxFragment)
			// Two armed pairs: one only seals (its receiver never reads, so
			// it cannot share cipher state with the pair that also opens).
			sealer, unread, sink := oneWay()
			armVersion(t, s, version, sealer, unread)
			sender, receiver, buf := oneWay()
			armVersion(t, s, version, sender, receiver)
			seal := func() {
				sink.Reset()
				if err := sealer.WriteRecord(TypeApplicationData, payload); err != nil {
					t.Fatal(err)
				}
			}
			sealOpen := func() {
				buf.Reset()
				if err := sender.WriteRecord(TypeApplicationData, payload); err != nil {
					t.Fatal(err)
				}
				if _, _, err := receiver.ReadRecord(); err != nil {
					t.Fatal(err)
				}
			}
			seal() // warm the pool and the layers' buffers
			sealOpen()
			sealAllocs := testing.AllocsPerRun(20, seal)
			openAllocs := testing.AllocsPerRun(20, sealOpen) - sealAllocs
			if sealAllocs > 1 || openAllocs > 0 {
				t.Errorf("%s %#04x: %.0f allocs/record sealing, %.0f opening; want <= 1 and 0", name, version, sealAllocs, openAllocs)
			}
		}
	}
}

// TestBadPaddingCostsOneMAC closes the CBC padding oracle by count, not
// by clock: a record whose padding is bad and a record whose MAC is bad
// both run the MAC exactly once and both end as bad_record_mac, under
// SSL 3.0 and TLS 1.0 rules alike. (It used to be an early return: bad
// padding was one hash pass cheaper.)
func TestBadPaddingCostsOneMAC(t *testing.T) {
	s, _ := suite.ByName("AES128-SHA")
	const bs = 16
	// 25 payload bytes + 20 of MAC leave 3 blocks: pad count 2.
	payload := bytes.Repeat([]byte{0x42}, 25)
	for _, tc := range []struct {
		name    string
		version uint16
		block   int  // ciphertext block to corrupt, from the end (1 = last)
		mask    byte // XORed into that block's last byte
	}{
		// Corrupting the last byte of the block before the last flips
		// the same bits of the pad count when CBC unchains it.
		{"SSL 3.0 pad longer than a block", VersionSSL30, 2, 0x80},
		{"TLS 1.0 pad longer than the record", VersionTLS10, 2, 0x80},
		{"TLS 1.0 pad bytes disagree with the count", VersionTLS10, 2, 0x01},
		// Corrupting the first block garbles payload only.
		{"SSL 3.0 bad MAC", VersionSSL30, 3, 0x01},
		{"TLS 1.0 bad MAC", VersionTLS10, 3, 0x01},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sender, receiver := NewCore(), NewCore()
			armVersion(t, s, tc.version, sender, receiver)
			if err := sender.WriteRecord(TypeApplicationData, payload); err != nil {
				t.Fatal(err)
			}
			wire := append([]byte(nil), sender.Outgoing()...)
			if len(wire) != headerLen+3*bs {
				t.Fatalf("sealed record is %d bytes, want 3 blocks", len(wire)-headerLen)
			}
			wire[len(wire)-(tc.block-1)*bs-1] ^= tc.mask

			macs := 0
			receiver.Probe = probe.NewBus(probe.SinkFunc(func(e probe.Event) {
				if e.Kind == probe.KindRecordCrypto && e.Op == OpMACVerify {
					macs++
				}
			}))
			receiver.Feed(wire)
			_, _, err := receiver.ReadRecord()
			var alert *AlertError
			if !errors.As(err, &alert) || alert.Description != AlertBadRecordMAC || alert.Peer {
				t.Fatalf("ReadRecord: %v, want a local bad_record_mac alert", err)
			}
			if macs != 1 {
				t.Fatalf("the MAC ran %d times, want exactly once", macs)
			}
		})
	}
}

func TestCiphertextActuallyEncrypted(t *testing.T) {
	s, _ := suite.ByName("DES-CBC3-SHA")
	sender, _, buf := oneWay()
	recv := NewLayer(struct {
		io.Reader
		io.Writer
	}{Reader: buf, Writer: io.Discard})
	arm(t, s, sender, recv)
	secret := []byte("very secret plaintext payload!")
	if err := sender.WriteRecord(TypeApplicationData, secret); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), secret) {
		t.Fatal("plaintext visible on the wire")
	}
}

func TestFragmentation(t *testing.T) {
	sender, receiver, _ := oneWay()
	s, _ := suite.ByName("RC4-MD5")
	arm(t, s, sender, receiver)
	big := make([]byte, MaxFragment*2+100)
	for i := range big {
		big[i] = byte(i)
	}
	if err := sender.WriteRecord(TypeApplicationData, big); err != nil {
		t.Fatal(err)
	}
	var got []byte
	for len(got) < len(big) {
		typ, chunk, err := receiver.ReadRecord()
		if err != nil {
			t.Fatal(err)
		}
		if typ != TypeApplicationData {
			t.Fatalf("type %v", typ)
		}
		if len(chunk) > MaxFragment {
			t.Fatalf("fragment of %d bytes exceeds max", len(chunk))
		}
		got = append(got, chunk...)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("reassembly mismatch")
	}
	if receiver.Stats.RecordsRead != 3 {
		t.Fatalf("expected 3 records, read %d", receiver.Stats.RecordsRead)
	}
}

func TestTamperedRecordRejected(t *testing.T) {
	s, _ := suite.ByName("AES128-SHA")
	sender, _, buf := oneWay()
	recv := NewLayer(struct {
		io.Reader
		io.Writer
	}{Reader: buf, Writer: io.Discard})
	arm(t, s, sender, recv)
	if err := sender.WriteRecord(TypeApplicationData, []byte("do not touch")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-1] ^= 0x80 // flip a ciphertext bit
	_, _, err := recv.ReadRecord()
	if err == nil {
		t.Fatal("tampered record accepted")
	}
	if ae, ok := err.(*AlertError); ok && ae.Description != AlertBadRecordMAC {
		t.Fatalf("unexpected alert: %v", err)
	}
}

func TestReplayRejected(t *testing.T) {
	// Delivering the same ciphertext twice must fail the second time:
	// the MAC binds the sequence number.
	s, _ := suite.ByName("RC4-SHA")
	buf := &bytes.Buffer{}
	sender := NewLayer(struct {
		io.Reader
		io.Writer
	}{Reader: strings.NewReader(""), Writer: buf})
	recv := NewLayer(struct {
		io.Reader
		io.Writer
	}{Reader: buf, Writer: io.Discard})
	arm(t, s, sender, recv)
	if err := sender.WriteRecord(TypeApplicationData, []byte("once")); err != nil {
		t.Fatal(err)
	}
	wire := append([]byte{}, buf.Bytes()...)
	if _, _, err := recv.ReadRecord(); err != nil {
		t.Fatal(err)
	}
	buf.Write(wire) // replay
	if _, _, err := recv.ReadRecord(); err == nil {
		t.Fatal("replayed record accepted")
	}
}

func TestAlertSurfacing(t *testing.T) {
	sender, receiver, _ := oneWay()
	if err := sender.WriteRecord(TypeAlert, []byte{AlertLevelFatal, AlertHandshakeFailure}); err != nil {
		t.Fatal(err)
	}
	typ, _, err := receiver.ReadRecord()
	if typ != TypeAlert {
		t.Fatalf("type %v", typ)
	}
	ae, ok := err.(*AlertError)
	if !ok {
		t.Fatalf("err = %v", err)
	}
	if ae.Level != AlertLevelFatal || ae.Description != AlertHandshakeFailure {
		t.Fatalf("alert = %+v", ae)
	}
	if !strings.Contains(ae.Error(), "handshake_failure") {
		t.Fatalf("alert text: %s", ae.Error())
	}
}

func TestCloseNotify(t *testing.T) {
	sender, receiver, _ := oneWay()
	if err := sender.WriteRecord(TypeAlert, []byte{AlertLevelWarning, AlertCloseNotify}); err != nil {
		t.Fatal(err)
	}
	_, _, err := receiver.ReadRecord()
	ae, ok := err.(*AlertError)
	if !ok || ae.Description != AlertCloseNotify || ae.Level != AlertLevelWarning {
		t.Fatalf("err = %v", err)
	}
}

func TestVersionHandling(t *testing.T) {
	mk := func(wire []byte) *Layer {
		return NewLayer(struct {
			io.Reader
			io.Writer
		}{Reader: bytes.NewReader(wire), Writer: io.Discard})
	}
	tls10Rec := []byte{byte(TypeHandshake), 0x03, 0x01, 0x00, 0x01, 0x00}
	ssl30Rec := []byte{byte(TypeHandshake), 0x03, 0x00, 0x00, 0x01, 0x00}
	ssl2Rec := []byte{byte(TypeHandshake), 0x02, 0x00, 0x00, 0x01, 0x00}

	// A flexible (pre-negotiation) layer accepts both modern versions.
	if _, _, err := mk(tls10Rec).ReadRecord(); err != nil {
		t.Fatalf("flexible layer rejected TLS 1.0: %v", err)
	}
	if _, _, err := mk(ssl30Rec).ReadRecord(); err != nil {
		t.Fatalf("flexible layer rejected SSL 3.0: %v", err)
	}
	if _, _, err := mk(ssl2Rec).ReadRecord(); err == nil {
		t.Fatal("flexible layer accepted SSLv2")
	}
	// Once pinned, the other version is rejected.
	pinned := mk(tls10Rec)
	pinned.SetProtocolVersion(VersionSSL30)
	if _, _, err := pinned.ReadRecord(); err == nil {
		t.Fatal("pinned SSL3 layer accepted TLS record")
	}
	if pinned.ProtocolVersion() != VersionSSL30 {
		t.Fatal("ProtocolVersion not reported")
	}
	// And the pinned version is emitted on the wire.
	out := &bytes.Buffer{}
	send := NewLayer(struct {
		io.Reader
		io.Writer
	}{Reader: bytes.NewReader(nil), Writer: out})
	send.SetProtocolVersion(VersionTLS10)
	send.WriteRecord(TypeApplicationData, []byte("x"))
	if out.Bytes()[1] != 0x03 || out.Bytes()[2] != 0x01 {
		t.Fatalf("wire version = %x", out.Bytes()[1:3])
	}
}

func TestRejectsTruncatedRecord(t *testing.T) {
	buf := &bytes.Buffer{}
	buf.Write([]byte{byte(TypeHandshake), 0x03, 0x00, 0x00, 0x10, 0xaa}) // claims 16 bytes
	recv := NewLayer(struct {
		io.Reader
		io.Writer
	}{Reader: buf, Writer: io.Discard})
	if _, _, err := recv.ReadRecord(); err == nil {
		t.Fatal("accepted truncated record")
	}
}

func TestStatsCount(t *testing.T) {
	sender, receiver, _ := oneWay()
	payload := []byte("count me")
	sender.WriteRecord(TypeApplicationData, payload)
	receiver.ReadRecord()
	if sender.Stats.RecordsWritten != 1 || sender.Stats.BytesWritten != len(payload) {
		t.Fatalf("sender stats %+v", sender.Stats)
	}
	if receiver.Stats.RecordsRead != 1 || receiver.Stats.BytesRead != len(payload) {
		t.Fatalf("receiver stats %+v", receiver.Stats)
	}
}

func TestContentTypeString(t *testing.T) {
	if TypeApplicationData.String() != "application_data" {
		t.Fatal("String wrong")
	}
	if !strings.Contains(ContentType(99).String(), "99") {
		t.Fatal("unknown type string wrong")
	}
}

func TestMACKeyMismatchRejected(t *testing.T) {
	s, _ := suite.ByName("NULL-SHA")
	buf := &bytes.Buffer{}
	sender := NewLayer(struct {
		io.Reader
		io.Writer
	}{Reader: strings.NewReader(""), Writer: buf})
	recv := NewLayer(struct {
		io.Reader
		io.Writer
	}{Reader: buf, Writer: io.Discard})
	wm, _ := sslcrypto.NewMAC(sslcrypto.MACSHA1, bytes.Repeat([]byte{1}, 20))
	rm, _ := sslcrypto.NewMAC(sslcrypto.MACSHA1, bytes.Repeat([]byte{2}, 20))
	wc, _ := s.NewCipher(nil, nil, true)
	rc, _ := s.NewCipher(nil, nil, false)
	sender.SetWriteState(wc, wm)
	recv.SetReadState(rc, rm)
	sender.WriteRecord(TypeApplicationData, []byte("mismatch"))
	if _, _, err := recv.ReadRecord(); err == nil {
		t.Fatal("accepted record with wrong MAC key")
	}
}

// TestProbeRecordIOAndAlertCounters checks the probe spine sees every
// framed record with its payload size and that alert traffic is
// counted separately.
func TestProbeRecordIOAndAlertCounters(t *testing.T) {
	sender, receiver, _ := oneWay()
	type obs struct {
		written bool
		alert   bool
		n       int
	}
	collect := func(dst *[]obs) *probe.Bus {
		return probe.NewBus(probe.SinkFunc(func(e probe.Event) {
			if e.Kind == probe.KindRecordIO {
				*dst = append(*dst, obs{e.Written, e.Alert, e.Bytes})
			}
		}))
	}
	var sent, recv []obs
	sender.Probe = collect(&sent)
	receiver.Probe = collect(&recv)

	payload := bytes.Repeat([]byte{0xAB}, MaxFragment+10) // forces 2 fragments
	if err := sender.WriteRecord(TypeApplicationData, payload); err != nil {
		t.Fatal(err)
	}
	if err := sender.WriteRecord(TypeAlert, []byte{AlertLevelWarning, AlertCloseNotify}); err != nil {
		t.Fatal(err)
	}
	if len(sent) != 3 || !sent[0].written || sent[0].n != MaxFragment ||
		sent[1].n != 10 || !sent[2].alert || sent[2].n != 2 {
		t.Fatalf("sent observations = %+v", sent)
	}
	if sender.Stats.AlertsWritten != 1 || sender.Stats.RecordsWritten != 3 {
		t.Fatalf("sender stats = %+v", sender.Stats)
	}

	for i := 0; i < 2; i++ {
		if _, _, err := receiver.ReadRecord(); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err := receiver.ReadRecord() // the alert surfaces as an error
	if ae, ok := err.(*AlertError); !ok || ae.Description != AlertCloseNotify {
		t.Fatalf("expected close_notify alert, got %v", err)
	}
	if len(recv) != 3 || recv[0].written || recv[0].alert || !recv[2].alert {
		t.Fatalf("recv observations = %+v", recv)
	}
	if receiver.Stats.AlertsRead != 1 || receiver.Stats.RecordsRead != 3 {
		t.Fatalf("receiver stats = %+v", receiver.Stats)
	}
}

// TestAlertName covers known and unknown codes. It is the telemetry
// counter tag of every alert, so naming a known code must not
// allocate.
func TestAlertName(t *testing.T) {
	if got := AlertName(AlertBadRecordMAC); got != "bad_record_mac" {
		t.Fatalf("AlertName = %q", got)
	}
	if got := AlertName(99); got != "alert(99)" {
		t.Fatalf("AlertName(99) = %q", got)
	}
	known := []byte{AlertCloseNotify, AlertUnexpectedMessage, AlertBadRecordMAC, AlertHandshakeFailure,
		AlertNoCertificate, AlertBadCertificate, AlertCertificateExpired, AlertIllegalParameter}
	var sink string
	allocs := testing.AllocsPerRun(100, func() {
		for _, code := range known {
			sink = AlertName(code)
		}
	})
	if allocs > 0 || sink != "illegal_parameter" {
		t.Fatalf("AlertName allocates %.1f objects over the known codes (last %q), want 0", allocs, sink)
	}
}
