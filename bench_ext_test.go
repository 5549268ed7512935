package sslperf_test

import (
	"testing"

	"sslperf"
	"sslperf/internal/dh"
	"sslperf/internal/hmacx"
	"sslperf/internal/record"
	"sslperf/internal/sslcrypto"
	"sslperf/internal/webmodel"
	"sslperf/internal/workload"
)

// Benchmarks for the extensions beyond the paper's tables: DHE key
// exchange, TLS 1.0, HMAC/PRF, and the simulated crypto engine.

func benchExtServer(b *testing.B, suiteName string, version uint16) *webmodel.Server {
	id, _ := benchSetup(b)
	s, err := sslperf.SuiteByName(suiteName)
	if err != nil {
		b.Fatal(err)
	}
	srv := webmodel.NewServer(id, s)
	srv.Version = version
	return srv
}

func BenchmarkAblationKxDHEHandshake(b *testing.B) {
	srv := benchExtServer(b, "EDH-RSA-DES-CBC3-SHA", 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := srv.RunTransaction(64, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationVersionTLSHandshake(b *testing.B) {
	srv := benchExtServer(b, "DES-CBC3-SHA", record.VersionTLS10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := srv.RunTransaction(1024, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHMAC(b *testing.B) {
	data := workload.Payload(1024)
	b.Run("SHA1", func(b *testing.B) {
		h := hmacx.NewSHA1(workload.Payload(20))
		b.SetBytes(1024)
		for i := 0; i < b.N; i++ {
			h.Reset()
			h.Write(data)
			h.Sum(nil)
		}
	})
	b.Run("MD5", func(b *testing.B) {
		h := hmacx.NewMD5(workload.Payload(16))
		b.SetBytes(1024)
		for i := 0; i < b.N; i++ {
			h.Reset()
			h.Write(data)
			h.Sum(nil)
		}
	})
}

func BenchmarkTLSPRF(b *testing.B) {
	secret := workload.Payload(48)
	seed := workload.Payload(64)
	for i := 0; i < b.N; i++ {
		sslcrypto.PRF10(secret, "key expansion", seed, 104)
	}
}

func BenchmarkDH(b *testing.B) {
	params := dh.Group1024()
	rnd := sslperf.NewPRNG(99)
	peer, err := dh.GenerateKey(rnd, params)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("GenerateKey", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dh.GenerateKey(rnd, params); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("SharedSecret", func(b *testing.B) {
		key, err := dh.GenerateKey(rnd, params)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := key.SharedSecret(peer.Y); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkRecordLayerBulk(b *testing.B) {
	// Raw record-layer throughput per suite at 16KB fragments — the
	// bulk data transfer phase isolated from handshakes.
	for _, name := range []string{"DES-CBC3-SHA", "AES128-SHA", "RC4-MD5", "NULL-SHA"} {
		name := name
		b.Run(name, func(b *testing.B) {
			srv := benchExtServer(b, name, 0)
			sess := (*sslperf.Session)(nil)
			_, s2, err := srv.RunTransaction(64, nil)
			if err != nil {
				b.Fatal(err)
			}
			sess = s2
			b.SetBytes(16384)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, s3, err := srv.RunTransaction(16384, sess)
				if err != nil {
					b.Fatal(err)
				}
				sess = s3
			}
		})
	}
}
