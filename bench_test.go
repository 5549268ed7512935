// Benchmarks regenerating the measured quantity behind every table
// and figure of the paper. Run with:
//
//	go test -bench=. -benchmem
//
// Benchmark names carry the table/figure they correspond to; the
// rendered tables themselves come from `sslanatomy -experiment all`.
package sslperf_test

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"sslperf"
	"sslperf/internal/accel"
	"sslperf/internal/aes"
	"sslperf/internal/bn"
	"sslperf/internal/core"
	"sslperf/internal/des"
	"sslperf/internal/md5x"
	"sslperf/internal/perf"
	"sslperf/internal/rc4"
	"sslperf/internal/rsa"
	"sslperf/internal/sha1x"
	"sslperf/internal/webmodel"
	"sslperf/internal/workload"
)

var (
	benchOnce sync.Once
	benchID   *sslperf.Identity
	benchRSA  map[int]*rsa.PrivateKey
)

func benchSetup(b *testing.B) (*sslperf.Identity, map[int]*rsa.PrivateKey) {
	b.Helper()
	benchOnce.Do(func() {
		var err error
		benchID, err = sslperf.NewIdentity(sslperf.NewPRNG(1), 1024, "bench", time.Now())
		if err != nil {
			panic(err)
		}
		benchRSA = map[int]*rsa.PrivateKey{1024: benchID.Key}
		k512, err := rsa.GenerateKey(sslperf.NewPRNG(2), 512)
		if err != nil {
			panic(err)
		}
		benchRSA[512] = k512
	})
	return benchID, benchRSA
}

func benchServer(b *testing.B) *webmodel.Server {
	id, _ := benchSetup(b)
	s, err := sslperf.SuiteByName("DES-CBC3-SHA")
	if err != nil {
		b.Fatal(err)
	}
	return webmodel.NewServer(id, s)
}

// --- Figure 1 / Tables 1-3: protocol-level measurements ---

func BenchmarkFigure1HandshakeTrace(b *testing.B) {
	id, _ := benchSetup(b)
	_ = id
	e, err := core.ByID("fig1")
	if err != nil {
		b.Fatal(err)
	}
	cfg := &core.Config{Quick: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Transaction1KB(b *testing.B) {
	srv := benchServer(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := srv.RunTransaction(1024, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2TransactionBySize(b *testing.B) {
	for _, size := range workload.FileSweep() {
		b.Run(byteName(size), func(b *testing.B) {
			srv := benchServer(b)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := srv.RunTransaction(size, nil); err != nil {
					b.Fatal(err)
				}
			}
			agg := srv.Split()
			if total := float64(agg.Total()); total > 0 {
				b.ReportMetric(100*float64(agg.Public)/total, "public%")
				b.ReportMetric(100*float64(agg.Private)/total, "private%")
				b.ReportMetric(100*float64(agg.Hash)/total, "hash%")
			}
		})
	}
}

func BenchmarkTable2FullHandshake(b *testing.B) {
	srv := benchServer(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := srv.RunTransaction(64, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2ResumedHandshake(b *testing.B) {
	srv := benchServer(b)
	_, sess, err := srv.RunTransaction(64, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, s2, err := srv.RunTransaction(64, sess)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Resumed {
			b.Fatal("did not resume")
		}
		sess = s2
	}
}

func BenchmarkTable3HandshakeCrypto(b *testing.B) {
	srv := benchServer(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := srv.RunTransaction(64, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(srv.Split().Public.Nanoseconds())/float64(b.N), "rsa-ns/op")
}

// --- Figure 3 / Tables 4-6: symmetric ciphers ---

// BenchmarkFigure3KeySetup times fresh-key set-up, what a server pays
// per connection: each cipher rotates through 1,024 PRNG-drawn keys
// prepared before the timer (one fixed key times a trained branch
// predictor instead).
func BenchmarkFigure3KeySetup(b *testing.B) {
	for _, c := range []struct {
		name   string
		keyLen int
		setup  func(key []byte)
	}{
		{"AES", 16, func(k []byte) { aes.New(k) }},
		{"DES", 8, func(k []byte) { des.New(k) }},
		{"3DES", 24, func(k []byte) { des.NewTriple(k) }},
		{"RC4", 16, func(k []byte) { rc4.New(k) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			keys := make([]byte, 1024*c.keyLen)
			rand.New(rand.NewSource(1)).Read(keys)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at := i % 1024 * c.keyLen
				c.setup(keys[at : at+c.keyLen])
			}
		})
	}
}

func BenchmarkTable4Characteristics(b *testing.B) {
	// Table 4 is static metadata; the benchmark pins its accessors.
	for i := 0; i < b.N; i++ {
		_ = aes.Characteristics()
		_ = des.Characteristics()
		_ = des.TripleCharacteristics()
		_ = rc4.Characteristics()
	}
}

func BenchmarkTable5AESBlock(b *testing.B) {
	for _, keyLen := range []int{16, 32} {
		b.Run(byteName(keyLen*8), func(b *testing.B) {
			c, _ := aes.New(make([]byte, keyLen))
			src := workload.Payload(16)
			dst := make([]byte, 16)
			b.SetBytes(16)
			for i := 0; i < b.N; i++ {
				c.Encrypt(dst, src)
			}
		})
	}
}

func BenchmarkTable6DESBlock(b *testing.B) {
	b.Run("DES", func(b *testing.B) {
		c, _ := des.New(make([]byte, 8))
		src := workload.Payload(8)
		dst := make([]byte, 8)
		b.SetBytes(8)
		for i := 0; i < b.N; i++ {
			c.Encrypt(dst, src)
		}
	})
	b.Run("3DES", func(b *testing.B) {
		c, _ := des.NewTriple(make([]byte, 24))
		src := workload.Payload(8)
		dst := make([]byte, 8)
		b.SetBytes(8)
		for i := 0; i < b.N; i++ {
			c.Encrypt(dst, src)
		}
	})
}

// --- Tables 7-9: RSA ---

func BenchmarkTable7RSADecrypt(b *testing.B) {
	_, keys := benchSetup(b)
	for _, bits := range []int{512, 1024} {
		b.Run(byteName(bits), func(b *testing.B) {
			key := keys[bits]
			rnd := sslperf.NewPRNG(3)
			msg := make([]byte, 48)
			ct, err := key.EncryptPKCS1(rnd, msg)
			if err != nil {
				b.Fatal(err)
			}
			key.DecryptPKCS1(rnd, ct) // warm blinding
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := key.DecryptPKCS1(rnd, ct); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable8RSADecryptProfiled(b *testing.B) {
	_, keys := benchSetup(b)
	key := keys[1024]
	rnd := sslperf.NewPRNG(4)
	ct, err := key.EncryptPKCS1(rnd, make([]byte, 48))
	if err != nil {
		b.Fatal(err)
	}
	key.DecryptPKCS1(rnd, ct)
	prof := perf.NewBreakdown()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := key.DecryptPKCS1Profiled(rnd, ct, prof); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable9MulAddKernel(b *testing.B) {
	// The bn_mul_add_words inner loop, exercised through a 1024-bit
	// schoolbook multiplication (32 limb passes of 32 limbs).
	x := bn.New()
	x.Rand(sslperf.NewPRNG(5), 1024, false)
	y := bn.New()
	y.Rand(sslperf.NewPRNG(6), 1024, false)
	z := bn.New()
	b.SetBytes(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Mul(x, y)
	}
}

// --- Tables 10-12: hashes and architecture ---

func BenchmarkTable10Hash1KB(b *testing.B) {
	data := workload.Payload(1024)
	b.Run("MD5", func(b *testing.B) {
		b.SetBytes(1024)
		for i := 0; i < b.N; i++ {
			md5x.Sum16(data)
		}
	})
	b.Run("SHA1", func(b *testing.B) {
		b.SetBytes(1024)
		for i := 0; i < b.N; i++ {
			sha1x.Sum20(data)
		}
	})
}

func BenchmarkTable11Throughput(b *testing.B) {
	data := workload.Payload(1024)
	b.Run("AES", func(b *testing.B) {
		c, _ := aes.New(make([]byte, 16))
		dst := make([]byte, 16)
		b.SetBytes(1024)
		for i := 0; i < b.N; i++ {
			for j := 0; j+16 <= len(data); j += 16 {
				c.Encrypt(dst, data[j:j+16])
			}
		}
	})
	b.Run("DES", func(b *testing.B) {
		c, _ := des.New(make([]byte, 8))
		dst := make([]byte, 8)
		b.SetBytes(1024)
		for i := 0; i < b.N; i++ {
			for j := 0; j+8 <= len(data); j += 8 {
				c.Encrypt(dst, data[j:j+8])
			}
		}
	})
	b.Run("3DES", func(b *testing.B) {
		c, _ := des.NewTriple(make([]byte, 24))
		dst := make([]byte, 8)
		b.SetBytes(1024)
		for i := 0; i < b.N; i++ {
			for j := 0; j+8 <= len(data); j += 8 {
				c.Encrypt(dst, data[j:j+8])
			}
		}
	})
	b.Run("RC4", func(b *testing.B) {
		c, _ := rc4.New(make([]byte, 16))
		buf := make([]byte, 1024)
		b.SetBytes(1024)
		for i := 0; i < b.N; i++ {
			c.XORKeyStream(buf, data)
		}
	})
	b.Run("MD5", func(b *testing.B) {
		b.SetBytes(1024)
		for i := 0; i < b.N; i++ {
			md5x.Sum16(data)
		}
	})
	b.Run("SHA1", func(b *testing.B) {
		b.SetBytes(1024)
		for i := 0; i < b.N; i++ {
			sha1x.Sum20(data)
		}
	})
	b.Run("RSA", func(b *testing.B) {
		_, keys := benchSetup(b)
		key := keys[1024]
		rnd := sslperf.NewPRNG(7)
		ct, _ := key.EncryptPKCS1(rnd, make([]byte, 48))
		key.DecryptPKCS1(rnd, ct)
		b.SetBytes(int64(key.Size()))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			key.DecryptPKCS1(rnd, ct)
		}
	})
}

func BenchmarkTable12TraceGeneration(b *testing.B) {
	c, _ := aes.New(make([]byte, 16))
	var tr perf.Trace
	for i := 0; i < b.N; i++ {
		tr.Reset()
		c.TraceEncryptBlock(&tr)
		_ = tr.Mix()
	}
}

// --- Figures 4-6: optimization models ---

func BenchmarkFigure4ThreeOperandISA(b *testing.B) {
	var tr perf.Trace
	md5x.TraceHash(&tr, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		after := accel.ThreeOperandISA(&tr)
		_ = accel.Speedup(&tr, after)
	}
}

func BenchmarkFigure5AESRoundUnit(b *testing.B) {
	c, _ := aes.New(make([]byte, 16))
	var tr perf.Trace
	c.TraceEncryptBlock(&tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		accel.AESRoundUnit(&tr, c.Rounds())
	}
}

func byteName(n int) string {
	switch {
	case n >= 1024 && n%1024 == 0:
		return itoa(n/1024) + "KB"
	default:
		return itoa(n)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
