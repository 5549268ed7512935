// Package rc4 implements the RC4 stream cipher from scratch. The
// paper singles RC4 out for its heavyweight key setup — initializing
// a 256-entry state table — relative to its very simple per-byte
// generation kernel (3 table reads, 2 writes, AND/ADD/XOR), which is
// why its Figure 3 key-setup share is an order of magnitude above the
// block ciphers'.
package rc4

import (
	"errors"

	"sslperf/internal/cipherinfo"
	"sslperf/internal/perf"
)

// A Cipher is an RC4 stream cipher instance. Encryption and
// decryption are the same operation.
type Cipher struct {
	s    [256]byte
	i, j byte
}

// New performs the RC4 key schedule (KSA) over key (1–256 bytes).
func New(key []byte) (*Cipher, error) {
	if len(key) < 1 || len(key) > 256 {
		return nil, errors.New("rc4: key must be 1 to 256 bytes")
	}
	c := &Cipher{}
	for i := 0; i < 256; i++ {
		c.s[i] = byte(i)
	}
	var j byte
	for i := 0; i < 256; i++ {
		j += c.s[i] + key[i%len(key)]
		c.s[i], c.s[j] = c.s[j], c.s[i]
	}
	return c, nil
}

// XORKeyStream XORs src with the keystream into dst (which may be
// src). Each keystream byte costs three state-table reads and two
// writes — the paper's "read 3 times and updated twice".
func (c *Cipher) XORKeyStream(dst, src []byte) {
	i, j := c.i, c.j
	for k, b := range src {
		i++
		j += c.s[i]
		c.s[i], c.s[j] = c.s[j], c.s[i]
		dst[k] = b ^ c.s[c.s[i]+c.s[j]]
	}
	c.i, c.j = i, j
}

// Characteristics returns the Table 4 row for RC4.
func Characteristics() cipherinfo.Characteristics {
	return cipherinfo.Characteristics{
		Name:        "RC4",
		BlockBits:   8,
		KeyBits:     "128",
		KeySchedule: "n/a",
		Tables:      "1,256,8b",
		Rounds:      "1",
		Lookups:     3,
	}
}

// TraceKeystream emits the abstract operations of generating n
// keystream bytes into tr. Per byte: 3 table reads, 2 writes, index
// arithmetic (adds + masks), the output XOR, and a load/store for the
// data byte — the AND/ADD/XOR + mov mix of the paper's Table 12.
func TraceKeystream(tr *perf.Trace, n uint64) {
	tr.Emit(perf.OpLookup, 3*n)
	tr.Emit(perf.OpStore, 2*n)
	tr.Emit(perf.OpAdd, 3*n)
	tr.Emit(perf.OpAnd, 3*n) // byte-index wraps
	tr.Emit(perf.OpXor, n)
	tr.Emit(perf.OpLoad, n)
	tr.Emit(perf.OpStore, n)
	tr.Emit(perf.OpAdd, n) // loop counter
	tr.Emit(perf.OpCmp, n)
	tr.Emit(perf.OpBranch, n)
	tr.Bytes += n
}
