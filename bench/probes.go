package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"sslperf/internal/bn"
	"sslperf/internal/handshake"
	"sslperf/internal/record"
	"sslperf/internal/ssl"
	"sslperf/internal/sslcrypto"
	"sslperf/internal/suite"
	sslworkload "sslperf/internal/workload"
)

// The layer probes replay, in this process and with same-sized
// inputs, the calls a workload's op makes into each layer, through
// exported functions only. Attribution is by replay, not by observed
// nesting: spans inside the product are a later change.

const (
	// probeCalls is how many timed calls a time metric is the median of.
	probeCalls = 200
	// allocCalls is how many calls an allocation metric is averaged
	// over, in a pass of its own: reading MemStats stops the world and
	// empties the allocator's caches, which would slow a timed call.
	allocCalls = 50
)

// timeCalls runs prep (untimed, may be nil) then fn probeCalls times
// and returns the median duration of fn, in nanoseconds, divided by
// batch, the number of layer calls one fn makes. Nanosecond-scale
// calls are batched so that reading the clock is not what is measured.
func timeCalls(batch int, prep, fn func()) nanos {
	d := make([]time.Duration, probeCalls)
	for i := range d {
		if prep != nil {
			prep()
		}
		t := time.Now()
		fn()
		d[i] = time.Since(t)
	}
	return medianOf(d) / nanos(batch)
}

// nanos is a duration in nanoseconds that keeps its fraction.
type nanos float64

// medianOf sorts d and returns its median.
func medianOf(d []time.Duration) nanos {
	slices.Sort(d)
	m, _ := percentile(d, 0.5)
	return nanos(m)
}

// allocsOf returns the mean number of heap allocations and kilobytes
// allocated by one of the batch layer calls fn makes; prep is not
// counted.
func allocsOf(batch int, prep, fn func()) (allocs, kb float64) {
	var a, b runtime.MemStats
	var n, bytes uint64
	for i := 0; i <= allocCalls; i++ {
		if prep != nil {
			prep()
		}
		runtime.ReadMemStats(&a)
		fn()
		runtime.ReadMemStats(&b)
		if i == 0 {
			continue // the first call sizes lazily-grown buffers
		}
		n += b.Mallocs - a.Mallocs
		bytes += b.TotalAlloc - a.TotalAlloc
	}
	calls := float64(allocCalls * batch)
	return float64(n) / calls, float64(bytes) / 1024 / calls
}

// A meter accumulates what the calls made through it cost: their time,
// or in memory mode their allocations.
type meter struct {
	mem            bool
	dur            time.Duration
	mallocs, bytes uint64
	a, b           runtime.MemStats
}

func (m *meter) call(fn func() error) error {
	if m.mem {
		runtime.ReadMemStats(&m.a)
		err := fn()
		runtime.ReadMemStats(&m.b)
		m.mallocs += m.b.Mallocs - m.a.Mallocs
		m.bytes += m.b.TotalAlloc - m.a.TotalAlloc
		return err
	}
	t := time.Now()
	err := fn()
	m.dur += time.Since(t)
	return err
}

// response is what sslserver answers with -filesize n.
func response(n int) []byte {
	return append([]byte(fmt.Sprintf("LEN %d\n", n)), sslworkload.Payload(n)...)
}

// countingDiscard is the transport of the flight probe: it drops the
// bytes and counts the writes a real socket would see.
type countingDiscard struct{ writes int }

func (d *countingDiscard) Read([]byte) (int, error) { return 0, io.EOF }

func (d *countingDiscard) Write(p []byte) (int, error) {
	d.writes++
	return len(p), nil
}

func (d *countingDiscard) WriteBuffers(bufs [][]byte) (int64, error) {
	d.writes++
	var n int64
	for _, b := range bufs {
		n += int64(len(b))
	}
	return n, nil
}

var _ record.BuffersWriter = (*countingDiscard)(nil)

// prober holds the inputs the probes share.
type prober struct {
	rnd *ssl.PRNG
	id  *ssl.Identity // the same key the server derives from the seed
	out map[string]metric
}

func (p *prober) set(name, unit string, v float64) { p.out[name] = single(unit, v) }

// setTime stores a duration in the unit the metric's name ends in.
func (p *prober) setTime(name, unit string, n nanos) {
	p.set(name, unit, float64(n)/map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}[unit])
}

func (p *prober) random(n int) []byte {
	b := make([]byte, n)
	p.rnd.Read(b)
	return b
}

// runProbes measures every workload-independent per-layer metric.
func runProbes(seed uint64) (map[string]metric, error) {
	// sslserver draws its key from NewPRNG(seed) first, so this is the
	// key the socket rounds ran against.
	id, err := ssl.NewIdentity(ssl.NewPRNG(seed), 1024, "sslserver", time.Now())
	if err != nil {
		return nil, err
	}
	p := &prober{rnd: ssl.NewPRNG(seed ^ 0x70726f6265), id: id, out: map[string]metric{}}
	for _, probe := range []func() error{
		p.bn, p.rsa, p.sslcrypto, p.suite,
		p.recordBulk, p.recordFlight, p.recordSmall,
		p.handshakes, p.sslBulk, p.sslEcho,
	} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	p.set("ssl.hs_full_nonrsa_us", "us",
		p.out["ssl.hs_full_server_us"].Value-p.out["rsa.decrypt1024_us"].Value)
	return p.out, nil
}

// bn: one CRT half of a 1024-bit private operation is a 512-bit
// Mont.Exp with a 512-bit exponent; MulMont is its inner step.
func (p *prober) bn() error {
	key := p.id.Key
	m, err := bn.NewMont(key.P)
	if err != nil {
		return err
	}
	x, err := bn.New().RandRange(p.rnd, key.P)
	if err != nil {
		return err
	}
	y, err := bn.New().RandRange(p.rnd, key.P)
	if err != nil {
		return err
	}
	z := bn.New()
	if m.Exp(z, x, key.Dp).Cmp(bn.New().ModExp(x, key.Dp, key.P)) != 0 {
		return errors.New("bn probe: Mont.Exp disagrees with ModExp")
	}
	exp := func() { m.Exp(z, x, key.Dp) }
	p.setTime("bn.exp512_us", "us", timeCalls(1, nil, exp))
	allocs, _ := allocsOf(1, nil, exp)
	p.set("bn.exp512_allocs", "count", allocs)

	xm, ym := m.ToMont(bn.New(), x), m.ToMont(bn.New(), y)
	const batch = 32
	p.setTime("bn.mulmont512_ns", "ns", timeCalls(batch, nil, func() {
		for i := 0; i < batch; i++ {
			m.MulMont(z, xm, ym)
		}
	}))
	return nil
}

// rsa: the ClientKeyExchange decryption of step 7 (blinding on) and
// the client's encryption that feeds it.
func (p *prober) rsa() error {
	key := p.id.Key
	pre := p.random(48)
	ct, err := key.EncryptPKCS1(p.rnd, pre)
	if err != nil {
		return err
	}
	dec := func() {
		pt, e := key.DecryptPKCS1(p.rnd, ct)
		if e != nil || !bytes.Equal(pt, pre) {
			err = fmt.Errorf("rsa probe: decrypt returned %x, %v", pt, e)
		}
	}
	p.setTime("rsa.decrypt1024_us", "us", timeCalls(1, nil, dec))
	allocs, kb := allocsOf(1, nil, dec)
	p.set("rsa.decrypt1024_allocs", "count", allocs)
	p.set("rsa.decrypt1024_alloc_kb", "KB", kb)
	p.setTime("rsa.encrypt1024_us", "us", timeCalls(1, nil, func() {
		if _, e := key.EncryptPKCS1(p.rnd, pre); e != nil {
			err = e
		}
	}))
	return err
}

// sslcrypto: the SSLv3 KDF and Finished hashes every handshake runs,
// resumed or not, and the record MAC at both record sizes.
func (p *prober) sslcrypto() error {
	pre, cr, sr := p.random(48), p.random(32), p.random(32)
	des3, err := suite.ByName("DES-CBC3-SHA")
	if err != nil {
		return err
	}
	master := sslcrypto.MasterSecret(pre, cr, sr)
	p.setTime("sslcrypto.kdf_us", "us", timeCalls(1, nil, func() {
		ms := sslcrypto.MasterSecret(pre, cr, sr)
		sslcrypto.KeyBlock(ms, cr, sr, des3.KeyMaterialLen())
	}))

	// A full handshake's transcript is about 1 KB with a 1024-bit key.
	fh := sslcrypto.NewFinishedHash()
	fh.Write(p.random(1024))
	p.setTime("sslcrypto.finished_us", "us", timeCalls(1, nil, func() {
		fh.Sum(sslcrypto.SenderClient, master)
		fh.Sum(sslcrypto.SenderServer, master)
	}))

	sha, err := sslcrypto.NewMAC(sslcrypto.MACSHA1, p.random(sslcrypto.MACSHA1.Size()))
	if err != nil {
		return err
	}
	buf := p.random(record.MaxFragment)
	var seq uint64
	p.setTime("sslcrypto.mac16k_sha1_us", "us", timeCalls(1, nil, func() {
		sha.Compute(seq, byte(record.TypeApplicationData), buf)
		seq++
	}))
	md5, err := sslcrypto.NewMAC(sslcrypto.MACMD5, p.random(sslcrypto.MACMD5.Size()))
	if err != nil {
		return err
	}
	const batch = 32
	p.setTime("sslcrypto.mac256_md5_ns", "ns", timeCalls(batch, nil, func() {
		for i := 0; i < batch; i++ {
			md5.Compute(seq, byte(record.TypeApplicationData), buf[:256])
			seq++
		}
	}))
	return nil
}

// suite: the three ciphers at the sizes the workloads feed them.
func (p *prober) suite() error {
	buf := p.random(record.MaxFragment)
	for _, c := range []struct {
		metric, suite string
		size, batch   int
		unit          string
	}{
		{"suite.aes128cbc_16k_us", "AES128-SHA", record.MaxFragment, 1, "us"},
		{"suite.rc4_256_ns", "RC4-MD5", 256, 32, "ns"},
		{"suite.des3cbc_1k_us", "DES-CBC3-SHA", 1024, 1, "us"},
	} {
		s, err := suite.ByName(c.suite)
		if err != nil {
			return err
		}
		ci, err := s.NewCipher(p.random(s.KeyLen), p.random(s.IVLen), true)
		if err != nil {
			return err
		}
		b, batch := buf[:c.size], c.batch
		d := timeCalls(batch, nil, func() {
			for i := 0; i < batch; i++ {
				ci.Encrypt(b)
			}
		})
		p.setTime(c.metric, c.unit, d)
	}
	return nil
}

// corePair returns a sealing and an opening record.Core keyed alike,
// as the two ends of one direction of a connection are.
func (p *prober) corePair(suiteName string) (w, r *record.Core, err error) {
	s, err := suite.ByName(suiteName)
	if err != nil {
		return nil, nil, err
	}
	key, iv, secret := p.random(s.KeyLen), p.random(s.IVLen), p.random(s.MACLen())
	w, r = record.NewCore(), record.NewCore()
	wc, err := s.NewCipher(key, iv, true)
	if err != nil {
		return nil, nil, err
	}
	rc, err := s.NewCipher(key, iv, false)
	if err != nil {
		return nil, nil, err
	}
	wm, err := s.NewMAC(secret)
	if err != nil {
		return nil, nil, err
	}
	rm, err := s.NewMAC(secret)
	if err != nil {
		return nil, nil, err
	}
	w.SetWriteState(wc, wm)
	r.SetReadState(rc, rm)
	return w, r, nil
}

// sealOpen times Core.WriteRecord and Core.Feed+ReadRecord on records
// of size bytes, batch records per sample, checking what comes out.
func (p *prober) sealOpen(suiteName string, size, batch int) (seal, open nanos, sealAllocs float64, err error) {
	w, r, err := p.corePair(suiteName)
	if err != nil {
		return 0, 0, 0, err
	}
	data := p.random(size)
	drain := func() { w.ConsumeOutgoing(len(w.Outgoing())) }
	sealBatch := func() {
		for i := 0; i < batch; i++ {
			if e := w.WriteRecord(record.TypeApplicationData, data); e != nil {
				err = e
			}
		}
	}
	var wire []byte
	open = timeCalls(batch, func() {
		sealBatch()
		wire = append(wire[:0], w.Outgoing()...)
		drain()
	}, func() {
		recLen := len(wire) / batch
		for i := 0; i < batch; i++ {
			r.Feed(wire[i*recLen : (i+1)*recLen])
			typ, got, e := r.ReadRecord()
			if e != nil || typ != record.TypeApplicationData || !bytes.Equal(got, data) {
				err = fmt.Errorf("record probe (%s, %d bytes): opened %d bytes of %v, %v", suiteName, size, len(got), typ, e)
			}
		}
	})
	if err != nil {
		return 0, 0, 0, err
	}
	// A fresh pair: the reader above has seen every record sealed so
	// far, and records sealed from here on are dropped unread.
	if w, _, err = p.corePair(suiteName); err != nil {
		return 0, 0, 0, err
	}
	seal = timeCalls(batch, drain, sealBatch)
	sealAllocs, _ = allocsOf(batch, drain, sealBatch)
	return seal, open, sealAllocs, err
}

func (p *prober) recordBulk() error {
	seal, open, allocs, err := p.sealOpen("AES128-SHA", record.MaxFragment, 1)
	p.setTime("record.seal16k_us", "us", seal)
	p.setTime("record.open16k_us", "us", open)
	p.set("record.seal16k_allocs", "count", allocs)
	return err
}

func (p *prober) recordSmall() error {
	seal, open, allocs, err := p.sealOpen("RC4-MD5", 256, 32)
	p.setTime("record.seal256_ns", "ns", seal)
	p.setTime("record.open256_ns", "ns", open)
	p.set("record.seal256_allocs", "count", allocs)
	return err
}

// recordFlight: Layer.WriteFlight of exactly what bulk_download's
// server writes per op, into a transport that counts writes.
func (p *prober) recordFlight() error {
	s, err := suite.ByName("AES128-SHA")
	if err != nil {
		return err
	}
	ci, err := s.NewCipher(p.random(s.KeyLen), p.random(s.IVLen), true)
	if err != nil {
		return err
	}
	mac, err := s.NewMAC(p.random(s.MACLen()))
	if err != nil {
		return err
	}
	sink := &countingDiscard{}
	l := record.NewLayer(sink)
	l.SetWriteState(ci, mac)
	data := response(1 << 20)
	flight := func() {
		if e := l.WriteFlight(record.TypeApplicationData, data); e != nil {
			err = e
		}
	}
	p.setTime("record.flight1m_ms", "ms", timeCalls(1, nil, flight))
	if sink.writes%probeCalls != 0 {
		return fmt.Errorf("flight probe: %d writes over %d equal flights", sink.writes, probeCalls)
	}
	p.set("record.flight1m_writes", "count", float64(sink.writes/probeCalls))
	_, kb := allocsOf(1, nil, flight)
	p.set("record.flight1m_alloc_kb", "KB", kb)
	return err
}

// nbPair is an in-memory NonBlockingServer/NonBlockingClient pair; the
// probe is the transport and meters each call per side.
type nbPair struct {
	cli, srv     *ssl.NonBlockingConn
	client, serv meter
	wire         int
}

// pump moves everything one side has queued to the other side.
func (n *nbPair) pump() {
	if out := n.cli.Outgoing(); len(out) > 0 {
		n.srv.Feed(out)
		n.wire += len(out)
		n.cli.ConsumeOutgoing(len(out))
	}
	if out := n.srv.Outgoing(); len(out) > 0 {
		n.cli.Feed(out)
		n.wire += len(out)
		n.srv.ConsumeOutgoing(len(out))
	}
}

// handshake steps both FSMs until both report done.
func (n *nbPair) handshake() error {
	for i := 0; i < 16; i++ {
		errC := n.client.call(n.cli.HandshakeStep)
		n.pump()
		errS := n.serv.call(n.srv.HandshakeStep)
		n.pump()
		if errC == nil && errS == nil {
			return nil
		}
		for _, e := range []error{errC, errS} {
			if e != nil && e != ssl.ErrWouldBlock {
				return e
			}
		}
	}
	return errors.New("handshake probe: no progress after 16 steps per side")
}

// hsProbe runs in-memory handshakes of one suite against the server
// key.
type hsProbe struct {
	ccfg, scfg ssl.Config
}

func (p *prober) newHSProbe(suiteName string) (*hsProbe, error) {
	s, err := suite.ByName(suiteName)
	if err != nil {
		return nil, err
	}
	return &hsProbe{
		ccfg: ssl.Config{Rand: ssl.NewPRNG(1), Suites: []suite.ID{s.ID}, InsecureSkipVerify: true},
		scfg: ssl.Config{Rand: ssl.NewPRNG(2), Key: p.id.Key, CertDER: p.id.CertDER,
			SessionCache: handshake.NewSessionCache(4096)},
	}, nil
}

// run performs one handshake, resuming sess when it is non-nil, and
// leaves the pair established.
func (h *hsProbe) run(sess *handshake.Session, mem bool) (*nbPair, error) {
	ccfg := h.ccfg
	ccfg.Session = sess
	n := &nbPair{cli: ssl.NonBlockingClient(&ccfg), srv: ssl.NonBlockingServer(&h.scfg)}
	n.client.mem, n.serv.mem = mem, mem
	if err := n.handshake(); err != nil {
		return nil, err
	}
	st, err := n.srv.ConnectionState()
	if err != nil {
		return nil, err
	}
	if st.Resumed != (sess != nil) {
		return nil, fmt.Errorf("handshake probe: resumed=%v with session offered=%v", st.Resumed, sess != nil)
	}
	return n, nil
}

func (n *nbPair) close() {
	n.cli.Close()
	n.srv.Close()
}

// handshakes: full and resumed DES-CBC3-SHA handshakes, per side.
// Allocations are the server side's, which is what the server process
// pays per connection.
func (p *prober) handshakes() error {
	h, err := p.newHSProbe("DES-CBC3-SHA")
	if err != nil {
		return err
	}
	first, err := h.run(nil, false)
	if err != nil {
		return err
	}
	sess, err := first.cli.Session()
	if err != nil {
		return err
	}
	first.close()

	for _, kind := range []struct {
		name string
		sess *handshake.Session
	}{{"full", nil}, {"resumed", sess}} {
		srv := make([]time.Duration, probeCalls)
		cli := make([]time.Duration, probeCalls)
		wire := -1
		for i := 0; i < probeCalls; i++ {
			n, err := h.run(kind.sess, false)
			if err != nil {
				return err
			}
			srv[i], cli[i] = n.serv.dur, n.client.dur
			if wire >= 0 && n.wire != wire {
				return fmt.Errorf("handshake probe: %s handshake wire bytes changed from %d to %d", kind.name, wire, n.wire)
			}
			wire = n.wire
			n.close()
		}
		var mallocs, bytes uint64
		for i := 0; i < allocCalls; i++ {
			n, err := h.run(kind.sess, true)
			if err != nil {
				return err
			}
			mallocs, bytes = mallocs+n.serv.mallocs, bytes+n.serv.bytes
			n.close()
		}
		pre := "ssl.hs_" + kind.name
		p.setTime(pre+"_server_us", "us", medianOf(srv))
		p.setTime(pre+"_client_us", "us", medianOf(cli))
		p.set(pre+"_allocs", "count", float64(mallocs)/allocCalls)
		p.set(pre+"_wire_bytes", "bytes", float64(wire))
		if kind.sess == nil {
			p.set(pre+"_alloc_kb", "KB", float64(bytes)/1024/allocCalls)
		}
	}
	return nil
}

// readAll drains n bytes of application data from c into buf.
func readAll(c *ssl.NonBlockingConn, buf []byte) error {
	for got := 0; got < len(buf); {
		k, err := c.ReadData(buf[got:])
		if err != nil {
			return err
		}
		got += k
	}
	return nil
}

// sslBulk: the server's WriteData and the client's ReadData of one
// bulk_download response over an established AES128-SHA pair.
func (p *prober) sslBulk() error {
	h, err := p.newHSProbe("AES128-SHA")
	if err != nil {
		return err
	}
	n, err := h.run(nil, false)
	if err != nil {
		return err
	}
	defer n.close()
	data := response(1 << 20)
	got := make([]byte, len(data))
	wr := make([]time.Duration, probeCalls)
	rd := make([]time.Duration, probeCalls)
	for i := range wr {
		n.serv.dur, n.client.dur = 0, 0
		if err := n.serv.call(func() error { _, e := n.srv.WriteData(data); return e }); err != nil {
			return err
		}
		n.pump()
		if err := n.client.call(func() error { return readAll(n.cli, got) }); err != nil {
			return err
		}
		wr[i], rd[i] = n.serv.dur, n.client.dur
	}
	if !bytes.Equal(got, data) {
		return errors.New("ssl bulk probe: bytes read differ from bytes written")
	}
	p.setTime("ssl.write1m_ms", "ms", medianOf(wr))
	p.setTime("ssl.read1m_ms", "ms", medianOf(rd))
	return nil
}

// sslEcho: one small_records op, both sides, over an established
// RC4-MD5 pair: request out, request in, response out, response in.
func (p *prober) sslEcho() error {
	h, err := p.newHSProbe("RC4-MD5")
	if err != nil {
		return err
	}
	n, err := h.run(nil, false)
	if err != nil {
		return err
	}
	defer n.close()
	resp := response(256)
	got := make([]byte, len(resp))
	req := make([]byte, len(request))
	const batch = 16
	echo := func() {
		for i := 0; i < batch; i++ {
			if _, e := n.cli.WriteData(request); e != nil {
				err = e
			}
			n.pump()
			if e := readAll(n.srv, req); e != nil {
				err = e
			}
			if _, e := n.srv.WriteData(resp); e != nil {
				err = e
			}
			n.pump()
			if e := readAll(n.cli, got); e != nil {
				err = e
			}
		}
	}
	p.setTime("ssl.echo256_ns", "ns", timeCalls(batch, nil, echo))
	allocs, _ := allocsOf(batch, nil, echo)
	p.set("ssl.echo256_allocs", "count", allocs)
	if err == nil && !bytes.Equal(got, resp) {
		err = errors.New("ssl echo probe: response bytes differ")
	}
	return err
}
