package record

import (
	"bytes"
	"fmt"
	"testing"

	"sslperf/internal/aessha1"
	"sslperf/internal/probe"
	"sslperf/internal/suite"
)

// stitchPair arms two cores with the same AES-CBC + SHA-1 write state,
// one sealing in the stitched form and one in two passes — whatever
// this CPU has, so the stitched form's MAC head, tail and chaining are
// checked everywhere and its kernel wherever CPUID reports it — and a
// third core that opens what they seal. version 0 keys the SSL 3.0
// MAC, VersionTLS10 the TLS 1.0 HMAC.
func stitchPair(t testing.TB, name string, version uint16) (stitched, twoPass, opener *Core) {
	t.Helper()
	s, err := suite.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	stitched, twoPass, opener = NewCore(), NewCore(), NewCore()
	armVersion(t, s, version, stitched, opener)
	armVersion(t, s, version, twoPass, NewCore())
	if stitched.out.aes == nil || twoPass.out.aes == nil {
		t.Fatalf("%s: no AES-CBC + SHA-1 pair behind the write state", name)
	}
	stitched.out.stitched, twoPass.out.stitched = true, false
	return stitched, twoPass, opener
}

// sealBoth seals payload through both forms, requires the records to
// be byte-identical, opens the stitched one, and drains both cores.
func sealBoth(t testing.TB, stitched, twoPass, opener *Core, payload []byte) {
	t.Helper()
	stitched.WriteRecord(TypeApplicationData, payload)
	twoPass.WriteRecord(TypeApplicationData, payload)
	got, want := stitched.Outgoing(), twoPass.Outgoing()
	if !bytes.Equal(got, want) {
		t.Fatalf("seq %d, %d-byte payload: stitched record differs from two-pass", twoPass.out.seq-1, len(payload))
	}
	opener.Feed(got)
	for len(payload) > 0 || opener.Buffered() > 0 {
		_, p, err := opener.ReadRecord()
		if err != nil {
			t.Fatalf("seq %d, %d-byte payload: stitched record does not open: %v", twoPass.out.seq-1, len(payload), err)
		}
		if !bytes.Equal(p, payload[:len(p)]) {
			t.Fatalf("seq %d: opened payload differs", twoPass.out.seq-1)
		}
		payload = payload[len(p):]
	}
	stitched.ConsumeOutgoing(len(got))
	twoPass.ConsumeOutgoing(len(want))
}

// stitchPayload fills n bytes that differ from record to record.
func stitchPayload(n int, seed byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*13) ^ byte(i>>8) ^ seed
	}
	return p
}

// TestSealStitchedEqualsTwoPass seals every payload length 0–320 and
// 16,256–16,384 — across the 16-byte AES and 64-byte SHA-1 phase
// boundaries and the stitched form's threshold — through both forms,
// for AES-128 and AES-256 under the SSL 3.0 MAC and the TLS 1.0 HMAC.
// Each length is three consecutive records from sequence number 254,
// so the CBC chain carried between records and a sequence number
// whose low byte carries are checked too.
func TestSealStitchedEqualsTwoPass(t *testing.T) {
	var lengths []int
	for n := 0; n <= 320; n++ {
		lengths = append(lengths, n)
	}
	for n := MaxFragment - 128; n <= MaxFragment; n++ {
		lengths = append(lengths, n)
	}
	for _, name := range []string{"AES128-SHA", "AES256-SHA"} {
		for _, version := range []uint16{0, VersionTLS10} {
			t.Run(fmt.Sprintf("%s/%#04x", name, version), func(t *testing.T) {
				stitched, twoPass, opener := stitchPair(t, name, version)
				for _, n := range lengths {
					stitched.out.seq, twoPass.out.seq, opener.in.seq = 254, 254, 254
					for r := 0; r < 3; r++ {
						sealBoth(t, stitched, twoPass, opener, stitchPayload(n, byte(r)))
					}
				}
			})
		}
	}
}

// FuzzSealStitched seals three consecutive records of a fuzzed length
// up to a full fragment, from a fuzzed sequence number, through both
// forms and requires byte-identical records that open.
func FuzzSealStitched(f *testing.F) {
	f.Add([]byte("seed"), uint16(200), uint64(254), false, false)
	f.Add([]byte{0xff}, uint16(MaxFragment), uint64(1<<32-2), true, true)
	f.Add([]byte{}, uint16(127), uint64(0), true, false)
	f.Fuzz(func(t *testing.T, data []byte, n uint16, seq uint64, tls, aes256 bool) {
		name, version := "AES128-SHA", uint16(0)
		if aes256 {
			name = "AES256-SHA"
		}
		if tls {
			version = VersionTLS10
		}
		payload := stitchPayload(int(n)%(MaxFragment+1), 0)
		for i := range payload {
			if len(data) > 0 {
				payload[i] ^= data[i%len(data)]
			}
		}
		stitched, twoPass, opener := stitchPair(t, name, version)
		stitched.out.seq, twoPass.out.seq, opener.in.seq = seq, seq, seq
		for r := 0; r < 3; r++ {
			sealBoth(t, stitched, twoPass, opener, payload)
		}
	})
}

// TestStitchedSealOneEvent pins the stitched form's attribution: on a
// CPU that runs it, a probed AES128-SHA record emits one
// KindRecordCrypto event, PrimAESSHA1, for the whole body — cipher and
// MAC together, not split by a ratio — while a record below stitchMin
// keeps the two-pass form's MAC and cipher events.
func TestStitchedSealOneEvent(t *testing.T) {
	if !aessha1.HardwareRounds() {
		t.Skip("this CPU has no stitched AES-CBC + SHA-1 kernel")
	}
	s, _ := suite.ByName("AES128-SHA")
	sender := NewCore()
	arm(t, s, sender, NewCore())
	sender.SetPrimitives(s.CipherAlgo, s.MAC.String())
	if !sender.out.stitched {
		t.Fatal("AES128-SHA write state not stitched on a CPU with the kernel")
	}
	var events []probe.Event
	sender.Probe = probe.NewBus(probe.SinkFunc(func(e probe.Event) {
		if e.Kind == probe.KindRecordCrypto {
			events = append(events, e)
		}
	}))
	sender.WriteRecord(TypeApplicationData, make([]byte, MaxFragment))
	if len(events) != 1 || events[0].Prim != PrimAESSHA1 || events[0].Op != OpCipherEncrypt ||
		events[0].Bytes != len(sender.Outgoing())-headerLen {
		t.Fatalf("16 KB stitched seal emitted %+v, want one %q cipher_encrypt event over the body", events, PrimAESSHA1)
	}
	events = nil
	sender.WriteRecord(TypeApplicationData, make([]byte, stitchMin-1))
	if len(events) != 2 || events[0].Prim != "SHA-1" || events[1].Prim != "AES" {
		t.Fatalf("short seal emitted %+v, want the two-pass SHA-1 and AES events", events)
	}
}
