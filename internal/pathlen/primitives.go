// Package pathlen is the offline half of the paper's Tables 11 and 12:
// one table of the seven primitives the paper characterises, each with
// its abstract-instruction trace (the model CPI, path length and
// operation mix sslanatomy's table11 and table12 print) and a run on
// the kernel this CPU ships (the measured MB/s of table11 and
// cryptospeed), and a fold of a pprof CPU profile by the spine's sample
// labels (sslanatomy -foldprofile). The live measurement is the
// telemetry registry's /debug/pathlength, which carries no model
// columns: the model describes the table and scalar kernels, not the
// AESENC or SHA1RNDS4 code a CPU may run.
package pathlen

import (
	"fmt"

	"sslperf/internal/aes"
	"sslperf/internal/bn"
	"sslperf/internal/des"
	"sslperf/internal/md5x"
	"sslperf/internal/perf"
	"sslperf/internal/rc4"
	"sslperf/internal/sha1x"
)

// A Primitive is one row of the paper's Tables 11 and 12.
type Primitive struct {
	// Name is the Table 11 row name, the vocabulary /debug/pathlength
	// uses: AES, DES, 3DES, RC4, RSA, MD5 or SHA-1.
	Name   string
	kernel func() string
	trace  func(tr *perf.Trace)
	run    func() func(buf []byte)
}

// Primitives are the paper's seven, in Table 11 order. Every key below
// is a fixed valid size, so the constructors' errors are dropped.
var Primitives = []Primitive{
	{Name: "AES", kernel: aes.Kernel,
		trace: func(tr *perf.Trace) {
			block, _, _ := AESBlockTrace(16)
			for i := 0; i < 1024/aes.BlockSize; i++ {
				tr.Add(block)
			}
		},
		run: func() func([]byte) {
			c, _ := aes.New(make([]byte, 16))
			return func(buf []byte) {
				for i := 0; i+aes.BlockSize <= len(buf); i += aes.BlockSize {
					c.Encrypt(buf[i:i+aes.BlockSize], buf[i:i+aes.BlockSize])
				}
			}
		}},
	{Name: "DES",
		trace: func(tr *perf.Trace) {
			c, _ := des.New(make([]byte, 8))
			for i := 0; i < 1024/des.BlockSize; i++ {
				c.TraceEncryptBlock(tr)
			}
		},
		run: func() func([]byte) {
			c, _ := des.New(make([]byte, 8))
			return func(buf []byte) {
				for i := 0; i+des.BlockSize <= len(buf); i += des.BlockSize {
					c.Encrypt(buf[i:i+des.BlockSize], buf[i:i+des.BlockSize])
				}
			}
		}},
	{Name: "3DES",
		trace: func(tr *perf.Trace) {
			c, _ := des.NewTriple(make([]byte, 24))
			for i := 0; i < 1024/des.BlockSize; i++ {
				c.TraceEncryptBlock(tr)
			}
		},
		run: func() func([]byte) {
			c, _ := des.NewTriple(make([]byte, 24))
			return func(buf []byte) {
				for i := 0; i+des.BlockSize <= len(buf); i += des.BlockSize {
					c.Encrypt(buf[i:i+des.BlockSize], buf[i:i+des.BlockSize])
				}
			}
		}},
	{Name: "RC4",
		trace: func(tr *perf.Trace) { rc4.TraceKeystream(tr, 1024) },
		run: func() func([]byte) {
			c, _ := rc4.New(make([]byte, 16))
			return func(buf []byte) { c.XORKeyStream(buf, buf) }
		}},
	{Name: "RSA",
		trace: func(tr *perf.Trace) {
			bn.TraceRSADecrypt(tr, 1024)
			tr.Bytes += 128 // one decryption "processes" a modulus
		}},
	{Name: "MD5",
		trace: func(tr *perf.Trace) { md5x.TraceHash(tr, 1024) },
		run:   func() func([]byte) { return func(buf []byte) { md5x.Sum16(buf) } }},
	{Name: "SHA-1", kernel: sha1x.Kernel,
		trace: func(tr *perf.Trace) { sha1x.TraceHash(tr, 1024) },
		run:   func() func([]byte) { return func(buf []byte) { sha1x.Sum20(buf) } }},
}

// Lookup returns the primitive named name. It panics on a name that is
// not in Primitives.
func Lookup(name string) Primitive {
	for _, p := range Primitives {
		if p.Name == name {
			return p
		}
	}
	panic(fmt.Sprintf("pathlen: no primitive %q", name))
}

// Kernel names the form Run runs on this CPU for a primitive that
// ships two (AES: AESENC or tables; SHA-1: SHA1RNDS4 or scalar), as the
// cpufeat table now stands, and is "" for the others.
func (p Primitive) Kernel() string {
	if p.kernel == nil {
		return ""
	}
	return p.kernel()
}

// Trace returns the primitive's abstract-instruction trace over 1 KB,
// of the code the paper traced (for AES the tables, for SHA-1 the
// scalar rounds); for RSA, one 1024-bit CRT decryption counted as 128
// bytes.
func (p Primitive) Trace() *perf.Trace {
	tr := &perf.Trace{}
	p.trace(tr)
	return tr
}

// Run returns a function that runs the primitive in place over a
// caller's buffer on the kernel this CPU ships: a block cipher
// encrypts it one single-block call at a time, RC4 XORs in a keystream
// that continues from call to call, a hash digests it in one shot. Its
// state is built when Run is called, so a cpufeat mask applied before
// then holds. Run returns nil for RSA, whose timing is a decryption
// rate over a key the caller holds.
func (p Primitive) Run() func(buf []byte) {
	if p.run == nil {
		return nil
	}
	return p.run()
}

// AESBlockTrace traces one AES block encryption under a keyLen-byte
// key (16, 24 or 32) and returns it with the key's round count: the
// software side of Figure 5's round unit, and the unit the AES row's
// 1 KB trace is 64 of.
func AESBlockTrace(keyLen int) (*perf.Trace, int, error) {
	c, err := aes.New(make([]byte, keyLen))
	if err != nil {
		return nil, 0, err
	}
	tr := &perf.Trace{}
	c.TraceEncryptBlock(tr)
	return tr, c.Rounds(), nil
}
