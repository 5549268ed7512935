package handshake

import "sslperf/internal/record"

// msgReader assembles handshake messages from handshake-type records,
// which may each carry several messages or a fraction of one. It
// reads through the RecordConn interface, so over a sans-IO core its
// calls surface ErrWouldBlock: every method is re-entrant — partial
// progress (buffered fragments of a message split across record
// boundaries) is kept in buf, nothing is consumed twice, and the same
// call simply resumes once more bytes are fed.
type msgReader struct {
	conn RecordConn
	buf  []byte
	// maxBody caps an announced message body, checked on the header
	// before any of the body is buffered: an unauthenticated peer must
	// not make this side hold more than its largest legitimate message.
	maxBody int
}

// fill reads records until at least n buffered handshake bytes are
// available. On ErrWouldBlock the bytes gathered so far stay
// buffered; call again after feeding the core.
func (r *msgReader) fill(n int) error {
	for len(r.buf) < n {
		typ, payload, err := r.conn.ReadRecord()
		if err != nil {
			return err
		}
		switch typ {
		case record.TypeHandshake:
			r.buf = append(r.buf, payload...)
		case record.TypeChangeCipherSpec:
			return badMessage("handshake: unexpected ChangeCipherSpec")
		default:
			return badMessage("handshake: unexpected %v record", typ)
		}
	}
	return nil
}

// next returns the next handshake message: its type and full wire
// bytes (header + body), which callers feed into the finished hash.
// The returned slice is a copy — safe past subsequent reads and
// feeds.
func (r *msgReader) next() (byte, []byte, error) {
	if err := r.fill(4); err != nil {
		return 0, nil, err
	}
	bodyLen := int(r.buf[1])<<16 | int(r.buf[2])<<8 | int(r.buf[3])
	if bodyLen > r.maxBody {
		return 0, nil, badMessage("handshake: malformed message: %d-byte body exceeds the %d-byte cap", bodyLen, r.maxBody)
	}
	if err := r.fill(4 + bodyLen); err != nil {
		return 0, nil, err
	}
	raw := r.buf[:4+bodyLen]
	msgType := raw[0]
	out := append([]byte(nil), raw...)
	r.buf = r.buf[4+bodyLen:]
	return msgType, out, nil
}

// expect returns the next handshake message's wire bytes, which must
// be of type want (named from the message table in the error when
// they are not).
func (r *msgReader) expect(want byte) ([]byte, error) {
	msgType, raw, err := r.next()
	if err != nil {
		return nil, err
	}
	if msgType != want {
		return nil, badMessage("handshake: expected %s, got type %d", MessageName(want), msgType)
	}
	return raw, nil
}

// readCCS consumes a ChangeCipherSpec record. Any buffered handshake
// bytes at this point mean the peer interleaved messages illegally.
func (r *msgReader) readCCS() error {
	if len(r.buf) != 0 {
		return badMessage("handshake: data buffered across ChangeCipherSpec")
	}
	typ, payload, err := r.conn.ReadRecord()
	if err != nil {
		return err
	}
	if typ != record.TypeChangeCipherSpec || len(payload) != 1 || payload[0] != 1 {
		return badMessage("handshake: expected ChangeCipherSpec, got %v", typ)
	}
	return nil
}
