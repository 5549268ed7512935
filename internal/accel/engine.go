package accel

import (
	"time"

	"sslperf/internal/aes"
	"sslperf/internal/cbc"
	"sslperf/internal/sslcrypto"
)

// Engine is the Figure 6 crypto engine: an AES encryption unit and a
// hashing unit fed by a control unit. EncryptFragment produces an SSL
// record fragment body (data ‖ MAC ‖ padding, CBC-encrypted); the
// pipelined path overlaps the MAC computation of the data with the
// AES encryption of the data, exactly as the paper's control-unit
// description has it — the MAC and trailing padding are encrypted
// last, after the hashing unit delivers them.
type Engine struct {
	aes *aes.Cipher
	iv  []byte
	mac *sslcrypto.MAC
	seq uint64
}

// NewEngine builds an engine with an AES key, CBC IV, and a MAC
// secret for the hashing unit.
func NewEngine(key, iv, macSecret []byte, macAlg sslcrypto.MACAlgorithm) (*Engine, error) {
	c, err := aes.New(key)
	if err != nil {
		return nil, err
	}
	m, err := sslcrypto.NewMAC(macAlg, macSecret)
	if err != nil {
		return nil, err
	}
	return &Engine{aes: c, iv: append([]byte(nil), iv...), mac: m}, nil
}

// buildTail appends MAC and SSLv3-style padding to reach a block
// multiple, returning the full fragment length.
func (e *Engine) pad(total int) int {
	bs := e.aes.BlockSize()
	padLen := bs - (total+1)%bs
	if padLen == bs {
		padLen = 0
	}
	return total + padLen + 1
}

// EncryptFragmentSerial is the baseline: MAC first, then encrypt the
// whole fragment — the order a software SSL stack uses.
func (e *Engine) EncryptFragmentSerial(data []byte) ([]byte, error) {
	mac := e.mac.Compute(e.seq, 23, data)
	e.seq++
	n := e.pad(len(data) + len(mac))
	frag := make([]byte, n)
	copy(frag, data)
	copy(frag[len(data):], mac)
	frag[n-1] = byte(n - len(data) - len(mac) - 1)
	enc, err := cbc.NewEncrypter(e.aes, e.iv)
	if err != nil {
		return nil, err
	}
	enc.CryptBlocks(frag, frag)
	return frag, nil
}

// EncryptFragmentPipelined overlaps the hashing unit with the AES
// unit: the data blocks are CBC-encrypted while the MAC is computed
// concurrently; the MAC+padding tail is encrypted afterwards,
// chained off the last data block as CBC requires. The hashing unit
// is a goroutine forked per fragment.
func (e *Engine) EncryptFragmentPipelined(data []byte) ([]byte, error) {
	bs := e.aes.BlockSize()
	seq := e.seq
	e.seq++
	var mac []byte
	hashed := make(chan struct{})
	go func() {
		mac = e.mac.Compute(seq, 23, data)
		close(hashed)
	}()

	macLen := e.mac.Size()
	n := e.pad(len(data) + macLen)
	frag := make([]byte, n)
	copy(frag, data)

	enc, err := cbc.NewEncrypter(e.aes, e.iv)
	if err != nil {
		return nil, err
	}
	// Encrypt the whole data blocks now, in parallel with the MAC.
	whole := len(data) / bs * bs
	enc.CryptBlocks(frag[:whole], frag[:whole])

	// Join: place MAC and padding, then encrypt the tail.
	<-hashed
	copy(frag[len(data):], mac)
	frag[n-1] = byte(n - len(data) - macLen - 1)
	enc.CryptBlocks(frag[whole:], frag[whole:])
	return frag, nil
}

// Reset rewinds the sequence number (so serial and pipelined runs of
// the same inputs produce identical fragments for equivalence tests).
func (e *Engine) Reset() { e.seq = 0 }

// ComponentTimes measures the engine's two units separately over
// iters runs: the hashing unit (MAC of data) and the AES unit
// (CBC encryption of a fragment-sized buffer). A hardware engine with
// both units overlaps them, so its fragment latency approaches
// max(macTime, aesTime) — the Figure 6 model — independent of how
// many host CPUs this process happens to have.
func (e *Engine) ComponentTimes(data []byte, iters int) (macTime, aesTime time.Duration) {
	start := time.Now()
	for i := 0; i < iters; i++ {
		e.mac.Compute(uint64(i), 23, data)
	}
	macTime = time.Since(start) / time.Duration(iters)

	frag := make([]byte, e.pad(len(data)+e.mac.Size()))
	enc, err := cbc.NewEncrypter(e.aes, e.iv)
	if err != nil {
		return 0, 0
	}
	start = time.Now()
	for i := 0; i < iters; i++ {
		enc.CryptBlocks(frag, frag)
	}
	aesTime = time.Since(start) / time.Duration(iters)
	return macTime, aesTime
}

// ModelOverlapSpeedup returns the Figure 6 engine speedup implied by
// the component times: serial = mac+aes, overlapped = max(mac, aes).
func ModelOverlapSpeedup(macTime, aesTime time.Duration) float64 {
	overlapped := macTime
	if aesTime > overlapped {
		overlapped = aesTime
	}
	if overlapped == 0 {
		return 0
	}
	return float64(macTime+aesTime) / float64(overlapped)
}
