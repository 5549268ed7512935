package record

import (
	"encoding/binary"
	"errors"
	"sync"
	"time"

	"sslperf/internal/aessha1"
	"sslperf/internal/cpufeat"
	"sslperf/internal/probe"
	"sslperf/internal/sslcrypto"
	"sslperf/internal/suite"
)

// ErrWouldBlock is the sans-IO sentinel: the core needs more wire
// bytes (Feed) before it can make progress. It is never wrapped — the
// handshake FSM and ssl.NonBlockingConn propagate it by identity, so
// callers test with ==/errors.Is and resume once more input arrives.
var ErrWouldBlock = errors.New("record: would block")

// Core is the pure framing/crypto half of the record layer: MAC,
// padding, encryption, sequence numbers, and record parsing over
// in-memory buffers, with no transport and no blocking. Wire bytes
// arrive via Feed and leave via Outgoing/ConsumeOutgoing; ReadRecord
// returns ErrWouldBlock — consuming nothing — when a full record has
// not yet been fed.
//
// Layer embeds Core and pumps a blocking transport around it, so every
// connection runs this one implementation of the crypto state machine
// (same probe events, same stats, same errors). Core is not safe for
// concurrent use.
type Core struct {
	in  halfState
	out halfState

	// Stats accumulates counts; read freely between operations.
	Stats Stats

	// Probe, when non-nil, is the instrumentation spine the core
	// emits on: one timed KindRecordCrypto event per cipher/MAC pass
	// and one KindRecordIO event per record sealed or successfully
	// opened. Every stamp comes from the bus, so a nil bus costs one
	// pointer test per hook and zero clock reads.
	Probe *probe.Bus

	// cipherPrim/macPrim name the primitives behind the armed cipher
	// states ("RC4", "MD5", …); SetPrimitives installs them when the
	// handshake arms encryption. They live on the core, not the bus,
	// which only carries the events.
	cipherPrim string
	macPrim    string

	// version is the pinned protocol version; 0 means flexible
	// (accept SSL 3.0 or TLS 1.0, emit SSL 3.0) until the handshake
	// negotiates and pins one via SetProtocolVersion.
	version uint16

	// incoming holds fed-but-unparsed wire bytes; inOff is the parse
	// cursor. Both reset when the buffer drains, so a conn that keeps
	// up reuses one allocation forever. Payloads returned by
	// ReadRecord alias incoming and stay valid only until the next
	// Feed (which compacts) — callers that need them longer copy.
	incoming []byte
	inOff    int

	// outgoing holds sealed-but-undelivered records; outOff is the
	// drain cursor (ConsumeOutgoing). It is a recordPool or windowPool
	// buffer (or, past a window, a one-off) borrowed by the first write
	// and given back once drained, so an idle connection holds none.
	outgoing []byte
	outOff   int
}

const (
	// recordCap holds any one sealed record: header, a maximum-size
	// fragment, and slack for the largest MAC plus a full padding block.
	recordCap = headerLen + MaxFragment + 64

	// windowRecords bounds the records a Layer seals per transport
	// write: 64 records × 16 KiB = 1 MiB windows, enough to amortize the
	// write syscall ~64× while capping what one connection takes from
	// the window pool.
	windowRecords = 64
	windowCap     = windowRecords * recordCap
)

// recordPool and windowPool recycle outgoing buffers across
// connections: a sealed record is dead as soon as it is on the wire, so
// a write borrows a buffer — one record's worth, or a window for a bulk
// write — instead of every connection allocating its own and pinning
// its high-water mark. sync.Pool shards per P, so under parallel load
// these are effectively per-CPU buffers.
var (
	recordPool = sync.Pool{New: func() any { return new([recordCap]byte) }}
	windowPool = sync.Pool{New: func() any { return new([windowCap]byte) }}
)

// NewCore returns a sans-IO record core with NULL security (the state
// before ChangeCipherSpec).
func NewCore() *Core { return &Core{} }

// ProbeBus returns the attached instrumentation bus (nil when off).
func (c *Core) ProbeBus() *probe.Bus { return c.Probe }

// SetProbe attaches the instrumentation bus.
func (c *Core) SetProbe(b *probe.Bus) { c.Probe = b }

// SetProtocolVersion pins the record-layer protocol version after
// negotiation. Subsequent records are emitted with it and inbound
// records must match it.
func (c *Core) SetProtocolVersion(v uint16) { c.version = v }

func (c *Core) writeVersion() uint16 {
	if c.version == 0 {
		return VersionSSL30
	}
	return c.version
}

func (c *Core) versionOK(v uint16) bool {
	if c.version != 0 {
		return v == c.version
	}
	return v == VersionSSL30 || v == VersionTLS10
}

// SetPrimitives names the cipher and MAC primitives the armed states
// use ("RC4", "AES", …; "MD5", "SHA-1"), so RecordCrypto events carry
// per-primitive attribution. The handshake calls it alongside
// SetWriteState/SetReadState; both directions share one suite, so one
// pair covers the connection.
func (c *Core) SetPrimitives(cipher, mac string) {
	c.cipherPrim, c.macPrim = cipher, mac
}

// SetWriteState installs the outbound cipher and MAC and resets the
// outbound sequence number; called when sending ChangeCipherSpec.
func (c *Core) SetWriteState(ci suite.RecordCipher, m *sslcrypto.MAC) {
	c.out = halfState{cipher: ci, mac: m}
	if m != nil && m.Algorithm() == sslcrypto.MACSHA1 {
		c.out.aes, c.out.iv = suite.AESCBC(ci)
	}
	c.out.stitched = c.out.aes != nil && cpufeat.X86.AES && cpufeat.X86.SHA
}

// Kernels names the kernels the write state's objects run, as they
// report them: its AES cipher's, its SHA-1 MAC's and, where
// SetWriteState chose it, the stitched seal's. A write state with
// neither names none.
func (c *Core) Kernels() []string {
	var ks []string
	if c.out.aes != nil {
		ks = append(ks, c.out.aes.Kernel())
	}
	if d := c.out.mac.SHA1(); d != nil {
		ks = append(ks, d.Kernel())
	}
	if c.out.stitched {
		ks = append(ks, aessha1.Kernel())
	}
	return ks
}

// SetReadState installs the inbound cipher and MAC and resets the
// inbound sequence number; called when receiving ChangeCipherSpec.
func (c *Core) SetReadState(ci suite.RecordCipher, m *sslcrypto.MAC) {
	c.in = halfState{cipher: ci, mac: m}
}

// timeCrypto runs fn, reporting it on the probe bus when one is
// attached.
func (c *Core) timeCrypto(op probe.RecordOp, prim string, n int, fn func()) {
	if c.Probe == nil {
		fn()
		return
	}
	start := c.Probe.Stamp()
	fn()
	c.Probe.RecordCrypto(op, prim, n, start)
}

// Feed appends wire bytes for the read side. Feeding compacts the
// incoming buffer, which invalidates any payload the previous
// ReadRecord returned — callers drain parsed records before feeding
// more (the ssl.NonBlockingConn contract).
func (c *Core) Feed(b []byte) {
	c.compactIncoming()
	c.incoming = append(c.incoming, b...)
}

// compactIncoming moves the unparsed bytes to the front of incoming.
func (c *Core) compactIncoming() {
	if c.inOff > 0 {
		n := copy(c.incoming, c.incoming[c.inOff:])
		c.incoming = c.incoming[:n]
		c.inOff = 0
	}
}

// Buffered reports how many fed bytes await parsing.
func (c *Core) Buffered() int { return len(c.incoming) - c.inOff }

// Outgoing returns the sealed-but-undelivered wire bytes. The slice
// aliases the core's buffer: valid until the next WriteRecord or
// ConsumeOutgoing.
func (c *Core) Outgoing() []byte { return c.outgoing[c.outOff:] }

// ConsumeOutgoing marks n outgoing bytes as delivered. A buffer that
// drains completely is given up rather than pinned for the
// connection's life.
func (c *Core) ConsumeOutgoing(n int) {
	c.outOff += n
	if c.outOff >= len(c.outgoing) {
		c.dropOutgoing()
	}
}

// dropOutgoing gives the outgoing buffer up: a pooled one goes back to
// its pool, a one-off to the collector.
func (c *Core) dropOutgoing() {
	switch cap(c.outgoing) {
	case recordCap:
		recordPool.Put((*[recordCap]byte)(c.outgoing[:recordCap]))
	case windowCap:
		windowPool.Put((*[windowCap]byte)(c.outgoing[:windowCap]))
	}
	c.outgoing, c.outOff = nil, 0
}

// reserve makes room for n more outgoing bytes in one step, so sealing
// a whole write never regrows the buffer record by record.
func (c *Core) reserve(n int) {
	if len(c.outgoing)+n <= cap(c.outgoing) {
		return
	}
	pending := c.outgoing[c.outOff:]
	need := len(pending) + n
	var buf []byte
	switch {
	case need <= recordCap:
		buf = recordPool.Get().(*[recordCap]byte)[:0]
	case need <= windowCap:
		buf = windowPool.Get().(*[windowCap]byte)[:0]
	default:
		buf = make([]byte, 0, need)
	}
	buf = append(buf, pending...)
	c.dropOutgoing()
	c.outgoing = buf
}

// ReadRecord parses and opens the next record from the fed bytes,
// returning its type and plaintext payload. If a complete record has
// not been fed yet it returns ErrWouldBlock without consuming
// anything — feed more bytes and call again. Alerts are surfaced as
// *AlertError.
//
// The returned payload aliases the core's incoming buffer and is
// valid only until the next Feed — callers that need it longer copy.
func (c *Core) ReadRecord() (ContentType, []byte, error) {
	typ, payload, _, err := c.readRecord()
	return typ, payload, err
}

// readRecord is ReadRecord that also says, with ErrWouldBlock, how
// many more wire bytes the next step needs: the rest of the header,
// or — once the header has parsed — the rest of the record.
func (c *Core) readRecord() (typ ContentType, payload []byte, missing int, err error) {
	buf := c.incoming[c.inOff:]
	if len(buf) < headerLen {
		return 0, nil, headerLen - len(buf), ErrWouldBlock
	}
	typ = ContentType(buf[0])
	version := binary.BigEndian.Uint16(buf[1:])
	length := int(binary.BigEndian.Uint16(buf[3:]))
	if !c.versionOK(version) {
		return 0, nil, 0, probe.Failf(probe.FailVersionMismatch, "record: unsupported version %#04x", version)
	}
	if length == 0 || length > MaxFragment+2048 {
		return 0, nil, 0, probe.Failf(probe.FailRecordError, "record: implausible record length %d", length)
	}
	if len(buf) < headerLen+length {
		return 0, nil, headerLen + length - len(buf), ErrWouldBlock
	}
	payload, err = c.open(typ, buf[headerLen:headerLen+length])
	if err != nil {
		return 0, nil, 0, err
	}
	c.inOff += headerLen + length
	if c.inOff == len(c.incoming) {
		c.incoming = c.incoming[:0]
		c.inOff = 0
	}
	c.Stats.RecordsRead++
	c.Stats.BytesRead += len(payload)
	c.Probe.RecordIO(false, typ == TypeAlert, len(payload))
	if typ == TypeAlert {
		c.Stats.AlertsRead++
		if len(payload) != 2 {
			return 0, nil, 0, probe.Failf(probe.FailRecordError, "record: malformed alert")
		}
		return typ, payload, 0, &AlertError{Level: payload[0], Description: payload[1], Peer: true}
	}
	return typ, payload, 0, nil
}

// stitchMin is the shortest payload the stitched seal takes: the MAC
// header leaves the hash at most 63 bytes short of a block, so any
// payload this long has a whole 64-byte group behind that. Shorter
// records (the handshake's Finished among them) seal in two passes.
const stitchMin = 128

// seal appends one sealed fragment — header ‖ payload ‖ MAC ‖ padding,
// MAC appended in place, padding in place, cipher in place — to
// outgoing, which WriteRecord has reserved room in, so every append
// here stays in place.
//
// It has two forms. The two-pass form copies the payload into the
// record, MACs it, then encrypts the body: two timed events. The
// stitched form (AES-CBC with a SHA-1 MAC on a CPU with both units)
// reads the payload where the caller holds it, encrypts its leading
// 64-byte groups straight into the record in the pass that hashes them
// (sslcrypto.MAC.AppendComputeCBC), and leaves the rest of the body —
// the payload's tail, the MAC, the padding — to the one cipher call
// below, chained on from the same IV: one timed event, PrimAESSHA1.
func (c *Core) seal(typ ContentType, payload []byte) {
	// Timing is inlined rather than routed through timeCrypto: the
	// closure a timeCrypto call would need captures the growing body
	// slice and forces a heap allocation per record. Stamp/RecordCrypto
	// are nil-receiver no-ops, so the probe-off path stays branch-only.
	buf := c.outgoing
	base := len(buf)
	rec := buf[base : base+headerLen]
	body := buf[base+headerLen : base+headerLen]
	stitched := c.out.stitched && len(payload) >= stitchMin
	// done counts the body bytes already encrypted, prim names the
	// primitive the cipher event reports, start when it began.
	done, prim := 0, c.cipherPrim
	var start time.Time
	if stitched {
		start = c.Probe.Stamp()
		prim = PrimAESSHA1
		body = body[:len(payload)]
		body, done = c.out.mac.AppendComputeCBC(body, c.out.seq, byte(typ), payload, c.out.aes, c.out.iv)
		copy(body[done:len(payload)], payload[done:])
	} else {
		body = append(body, payload...)
		if c.out.mac != nil {
			start := c.Probe.Stamp()
			body = c.out.mac.AppendCompute(body, c.out.seq, byte(typ), payload)
			c.Probe.RecordCrypto(probe.OpMACCompute, c.macPrim, len(payload), start)
		}
	}
	if c.out.active() {
		if bs := c.out.cipher.BlockSize(); bs > 1 {
			// Block padding: pad bytes then a count byte; total
			// length must be a block multiple. Every pad byte holds
			// the count, as TLS 1.0 requires (SSLv3 allows any
			// content, so this satisfies both).
			padLen := bs - (len(body)+1)%bs
			if padLen == bs {
				padLen = 0
			}
			for i := 0; i < padLen; i++ {
				body = append(body, byte(padLen))
			}
			body = append(body, byte(padLen))
		}
		if !stitched {
			start = c.Probe.Stamp()
		}
		c.out.cipher.Encrypt(body[done:])
		c.Probe.RecordCrypto(probe.OpCipherEncrypt, prim, len(body), start)
	}
	rec[0] = byte(typ)
	binary.BigEndian.PutUint16(rec[1:], c.writeVersion())
	binary.BigEndian.PutUint16(rec[3:], uint16(len(body)))
	c.outgoing = buf[:base+headerLen+len(body)]

	c.out.seq++
	c.Stats.RecordsWritten++
	c.Stats.BytesWritten += len(payload)
	if typ == TypeAlert {
		c.Stats.AlertsWritten++
	}
	c.Probe.RecordIO(true, typ == TypeAlert, len(payload))
}

// Flush is a no-op: a Core has no transport, and its caller drains
// Outgoing at its own pace. (Layer.Flush writes the held flight.)
func (c *Core) Flush() error { return nil }

// WriteRecord seals data of the given type into the outgoing buffer,
// fragmenting as needed. It never blocks; the caller drains the bytes
// with Outgoing/ConsumeOutgoing. (Transport write accounting —
// Stats.WriteCalls — belongs to whoever flushes.)
func (c *Core) WriteRecord(typ ContentType, data []byte) error {
	records := max(1, (len(data)+MaxFragment-1)/MaxFragment)
	c.reserve(len(data) + records*(recordCap-MaxFragment))
	for first := true; first || len(data) > 0; first = false {
		n := min(len(data), MaxFragment)
		c.seal(typ, data[:n])
		data = data[n:]
	}
	return nil
}

// open decrypts, strips padding, and verifies the MAC of one record
// body in place.
func (c *Core) open(typ ContentType, body []byte) ([]byte, error) {
	if !c.in.active() {
		if c.in.mac != nil {
			return c.checkMAC(typ, body)
		}
		c.in.seq++
		return body, nil
	}
	bs := c.in.cipher.BlockSize()
	if bs > 1 && len(body)%bs != 0 {
		return nil, probe.Failf(probe.FailRecordError, "record: ciphertext not a block multiple")
	}
	c.timeCrypto(probe.OpCipherDecrypt, c.cipherPrim, len(body), func() {
		c.in.cipher.Decrypt(body)
	})
	if bs > 1 {
		if len(body) == 0 {
			return nil, probe.Failf(probe.FailRecordError, "record: empty block record")
		}
		// Bad padding must cost what a bad MAC costs — a peer who can
		// tell the two apart by the clock has a padding oracle — so it
		// is not an early return: the MAC is verified over the body as
		// if the pad were empty, and the record then fails the same way.
		padLen := int(body[len(body)-1])
		padOK := padLen+1 <= len(body)
		switch {
		case !padOK:
		case c.version >= VersionTLS10:
			// TLS 1.0: padding may span blocks and every pad byte
			// must equal the count.
			for _, b := range body[len(body)-padLen-1:] {
				padOK = padOK && int(b) == padLen
			}
		default:
			// SSLv3: padding must not exceed one block; content is
			// arbitrary.
			padOK = padLen < bs
		}
		if !padOK {
			c.checkMAC(typ, body[:len(body)-1])
			return nil, &AlertError{Level: AlertLevelFatal, Description: AlertBadRecordMAC}
		}
		body = body[:len(body)-padLen-1]
	}
	return c.checkMAC(typ, body)
}

func (c *Core) checkMAC(typ ContentType, body []byte) ([]byte, error) {
	if c.in.mac == nil {
		c.in.seq++
		return body, nil
	}
	macLen := c.in.mac.Size()
	if len(body) < macLen {
		return nil, probe.Failf(probe.FailRecordError, "record: record shorter than MAC")
	}
	payload, mac := body[:len(body)-macLen], body[len(body)-macLen:]
	var ok bool
	c.timeCrypto(probe.OpMACVerify, c.macPrim, len(payload), func() {
		ok = c.in.mac.Verify(c.in.seq, byte(typ), payload, mac)
	})
	if !ok {
		return nil, &AlertError{Level: AlertLevelFatal, Description: AlertBadRecordMAC}
	}
	c.in.seq++
	return payload, nil
}
