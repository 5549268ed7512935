package ssl

import (
	"bytes"
	"testing"

	"sslperf/internal/probe"
)

// captureTransport replays a fixed inbound stream and keeps what the
// connection writes.
type captureTransport struct {
	r   *bytes.Reader
	out bytes.Buffer
}

func (c *captureTransport) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c *captureTransport) Write(p []byte) (int, error) { return c.out.Write(p) }
func (c *captureTransport) Close() error                { return nil }

// TestStep7FailsUniformly closes the Bleichenbacher oracle of step 7:
// a ClientKeyExchange whose plaintext has bad PKCS#1 padding, the
// wrong length, or the wrong version bytes must be indistinguishable
// on the wire. Each malformed ciphertext replaces the real one in a
// captured client stream; the server must answer all three with the
// same records, the same alert and the same failure class — the ones
// a wrong key produces at Finished — and still accept the untouched
// stream.
func TestStep7FailsUniformly(t *testing.T) {
	const clientSeed, serverSeed = 5101, 5102
	c2s, _ := captureStreams(t, clientSeed, serverSeed)
	ends := recordBoundaries(t, c2s)
	if len(ends) < 4 {
		t.Fatalf("captured %d client records, want >= 4 (hello, kx, ccs, finished)", len(ends))
	}
	key := identity(t).Key
	k := key.Size()
	ckxEnd := ends[1] // the ciphertext is the tail of the second record

	rnd := NewPRNG(5103)
	encrypt := func(msg []byte) []byte {
		ct, err := key.EncryptPKCS1(rnd, msg)
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}
	pre := make([]byte, 48)
	rnd.Read(pre)
	garbage := make([]byte, k) // < N, and PKCS#1-conformant with chance 2^-16
	rnd.Read(garbage[1:])

	cases := []struct {
		name string
		ct   []byte // nil: leave the captured ciphertext in place
	}{
		{"good", nil},
		{"bad-padding", garbage},
		{"wrong-length", encrypt(pre[:47])},
		{"wrong-version", encrypt(append([]byte{9, 9}, pre[2:]...))},
	}
	type outcome struct {
		class   probe.FailClass
		tag     string
		err     string
		records int
		last    []byte // the final record the server wrote
	}
	var want *outcome
	for _, tc := range cases {
		stream := append([]byte(nil), c2s...)
		if tc.ct != nil {
			copy(stream[ckxEnd-k:ckxEnd], tc.ct)
		}
		tr := &captureTransport{r: bytes.NewReader(stream)}
		server := ServerConn(tr, identity(t).ServerConfig(NewPRNG(serverSeed)))
		err := server.Handshake()
		if tc.ct == nil {
			if err != nil {
				t.Fatalf("%s: untouched stream rejected: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("%s: handshake succeeded", tc.name)
		}
		out := tr.out.Bytes()
		recs := recordBoundaries(t, out)
		got := &outcome{
			class:   Classify(err),
			tag:     FailureReason(err),
			err:     err.Error(),
			records: len(recs),
			last:    out[recs[len(recs)-2]:],
		}
		t.Logf("%s: %s (%s), %d records, last % x", tc.name, got.tag, got.err, got.records, got.last)
		if got.class != probe.FailBadMAC {
			t.Errorf("%s: class %v, want the wrong-key failure %v", tc.name, got.class, probe.FailBadMAC)
		}
		if want == nil {
			want = got
			continue
		}
		if got.class != want.class || got.tag != want.tag || got.err != want.err ||
			got.records != want.records || !bytes.Equal(got.last, want.last) {
			t.Errorf("%s is distinguishable from %s:\n got  %+v\n want %+v", tc.name, cases[1].name, got, want)
		}
	}
}
