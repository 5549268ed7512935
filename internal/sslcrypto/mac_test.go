package sslcrypto

import (
	"bytes"
	"encoding/binary"
	"testing"

	"sslperf/internal/md5x"
	"sslperf/internal/sha1x"
	"sslperf/internal/testenv"
)

// longhandMAC is both record MACs with nothing precomputed: every
// record hashes the key material again, as the construction is
// written down. pad1/pad2 are the SSL 3.0 pads or, for TLS 1.0, the
// HMAC key block XORed with ipad/opad.
func longhandMAC(alg MACAlgorithm, tls bool, version uint16, secret []byte, seq uint64, typ byte, payload []byte) []byte {
	newHash := func() interface {
		Write([]byte) (int, error)
		Sum([]byte) []byte
	} {
		if alg == MACMD5 {
			return md5x.New()
		}
		return sha1x.New()
	}
	hdr := binary.BigEndian.AppendUint64(nil, seq)
	hdr = append(hdr, typ)
	var innerKey, outerKey []byte
	if tls {
		hdr = binary.BigEndian.AppendUint16(hdr, version)
		innerKey, outerKey = make([]byte, 64), make([]byte, 64)
		copy(innerKey, secret)
		copy(outerKey, secret)
		for i := range innerKey {
			innerKey[i] ^= 0x36
			outerKey[i] ^= 0x5c
		}
	} else {
		padLen := map[MACAlgorithm]int{MACMD5: 48, MACSHA1: 40}[alg]
		innerKey = append(append([]byte(nil), secret...), bytes.Repeat([]byte{0x36}, padLen)...)
		outerKey = append(append([]byte(nil), secret...), bytes.Repeat([]byte{0x5c}, padLen)...)
	}
	hdr = binary.BigEndian.AppendUint16(hdr, uint16(len(payload)))

	inner := newHash()
	inner.Write(innerKey)
	inner.Write(hdr)
	inner.Write(payload)
	outer := newHash()
	outer.Write(outerKey)
	outer.Write(inner.Sum(nil))
	return outer.Sum(nil)
}

// TestMACSnapshotEquivalence holds the keyed-state snapshots to the
// construction they shortcut: SSL 3.0 and TLS 1.0 MACs over both
// hashes, across payload sizes that end the inner hash in every
// position of a block, reusing one MAC from record to record.
func TestMACSnapshotEquivalence(t *testing.T) {
	for _, alg := range []MACAlgorithm{MACMD5, MACSHA1} {
		for _, tls := range []bool{false, true} {
			secret := randBytes(int64(alg)+7, alg.Size())
			m, err := NewMAC(alg, secret)
			if tls {
				m, err = NewTLSMAC(alg, secret, 0x0301)
			}
			if err != nil {
				t.Fatal(err)
			}
			for n := 0; n <= 200; n++ {
				payload := randBytes(int64(n), n)
				seq := uint64(n) * 0x0101010101
				got := m.Compute(seq, 23, payload)
				want := longhandMAC(alg, tls, 0x0301, secret, seq, 23, payload)
				if !bytes.Equal(got, want) {
					t.Fatalf("%v tls=%v, %d-byte payload: %x, want %x", alg, tls, n, got, want)
				}
				if !m.Verify(seq, 23, payload, want) {
					t.Fatalf("%v tls=%v, %d-byte payload: Verify rejects the longhand MAC", alg, tls, n)
				}
			}
		}
	}
}

// TestMACComputeAllocatesNothing pins both record MAC forms at zero
// allocations per record once dst has room — the TLS 1.0 form used to
// allocate its inner digest.
func TestMACComputeAllocatesNothing(t *testing.T) {
	if testenv.Race {
		t.Skip("race runtime allocates on its own")
	}
	payload, dst := make([]byte, 1024), make([]byte, 0, maxMACSize)
	for _, alg := range []MACAlgorithm{MACMD5, MACSHA1} {
		ssl3, _ := NewMAC(alg, make([]byte, alg.Size()))
		tls, _ := NewTLSMAC(alg, make([]byte, alg.Size()), 0x0301)
		for name, m := range map[string]*MAC{"SSL 3.0": ssl3, "TLS 1.0": tls} {
			if n := testing.AllocsPerRun(50, func() { m.AppendCompute(dst, 1, 23, payload) }); n != 0 {
				t.Errorf("%s %v AppendCompute allocates %.0f times per record, want 0", name, alg, n)
			}
			if n := testing.AllocsPerRun(50, func() { m.Verify(1, 23, payload, dst[:alg.Size()]) }); n != 0 {
				t.Errorf("%s %v Verify allocates %.0f times per record, want 0", name, alg, n)
			}
		}
	}
}

func BenchmarkMAC(b *testing.B) {
	for _, bc := range []struct {
		name string
		alg  MACAlgorithm
		n    int
		tls  bool
	}{
		{"ssl3-md5-256", MACMD5, 256, false}, {"ssl3-sha1-16k", MACSHA1, 16384, false},
		{"tls-md5-256", MACMD5, 256, true}, {"tls-sha1-16k", MACSHA1, 16384, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m, _ := NewMAC(bc.alg, make([]byte, bc.alg.Size()))
			if bc.tls {
				m, _ = NewTLSMAC(bc.alg, make([]byte, bc.alg.Size()), 0x0301)
			}
			payload, dst := make([]byte, bc.n), make([]byte, 0, maxMACSize)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.AppendCompute(dst, uint64(i), 23, payload)
			}
		})
	}
}
