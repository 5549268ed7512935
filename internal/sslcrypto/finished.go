package sslcrypto

import (
	"sslperf/internal/md5x"
	"sslperf/internal/sha1x"
)

// Sender labels for the SSLv3 finished hash ('CLNT' and 'SRVR' — the
// paddings the paper's handshake steps 6 and 8 compute hashes with).
var (
	SenderClient = []byte{0x43, 0x4c, 0x4e, 0x54} // "CLNT"
	SenderServer = []byte{0x53, 0x52, 0x56, 0x52} // "SRVR"
)

// A FinishedHash accumulates every handshake message in running MD5
// and SHA-1 digests. OpenSSL updates these as each message is sent or
// received — the paper's "finish_mac" calls sprinkled through Table 2
// — and finalizes them when the finished messages are built.
type FinishedHash struct {
	md5 *md5x.Digest
	sha *sha1x.Digest
}

// NewFinishedHash returns an empty handshake transcript hash (the
// init_finished_mac of Table 2 step 0).
func NewFinishedHash() *FinishedHash {
	return &FinishedHash{md5: md5x.New(), sha: sha1x.New()}
}

// Write absorbs one handshake message (header + body). Never fails.
func (f *FinishedHash) Write(p []byte) (int, error) {
	f.md5.Write(p)
	f.sha.Write(p)
	return len(p), nil
}

// Sum computes the two finished hash values for the given sender
// label over everything written so far, without disturbing the
// running state (so the peer's finished value can still be computed):
//
//	MD5(master ‖ pad2 ‖ MD5(transcript ‖ sender ‖ master ‖ pad1)) ‖
//	SHA1(master ‖ pad2 ‖ SHA1(transcript ‖ sender ‖ master ‖ pad1))
//
// The result is 36 bytes (16 MD5 + 20 SHA-1).
func (f *FinishedHash) Sum(sender, master []byte) []byte {
	out := make([]byte, 0, md5x.Size+sha1x.Size)
	var inner [sha1x.Size]byte

	mdInner := *f.md5 // copy running state
	mdInner.Write(sender)
	mdInner.Write(master)
	mdInner.Write(pad1[:48])
	mdOuter := md5x.New()
	mdOuter.Write(master)
	mdOuter.Write(pad2[:48])
	mdOuter.Write(mdInner.Sum(inner[:0]))
	out = mdOuter.Sum(out)

	shaInner := *f.sha
	shaInner.Write(sender)
	shaInner.Write(master)
	shaInner.Write(pad1[:40])
	shaOuter := sha1x.New()
	shaOuter.Write(master)
	shaOuter.Write(pad2[:40])
	shaOuter.Write(shaInner.Sum(inner[:0]))
	return shaOuter.Sum(out)
}

// pad1 and pad2 are the SSLv3 pads: 48 bytes of 0x36 and of 0x5c
// after an MD5 secret, the first 40 after a SHA-1 one.
var pad1, pad2 [48]byte

func init() {
	for i := range pad1 {
		pad1[i], pad2[i] = 0x36, 0x5c
	}
}
