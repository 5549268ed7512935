// Package sslcrypto implements the SSL 3.0 key-derivation and
// integrity constructions: the MD5/SHA-1 ladder that turns the
// pre-master secret into the master secret and key block (the "series
// of hash functions" of the paper's handshake steps 5 and 6), the
// pre-HMAC pad1/pad2 record MAC, and the finished-message hashes with
// their 'CLNT'/'SRVR' sender labels (steps 6 and 8).
package sslcrypto

import (
	"sslperf/internal/md5x"
	"sslperf/internal/sha1x"
)

// MasterSecretLen is the SSLv3 master secret length (48 bytes).
const MasterSecretLen = 48

// PreMasterLen is the SSLv3 pre-master secret length: 2 version bytes
// plus 46 random bytes.
const PreMasterLen = 48

// deriveBytes runs the SSLv3 derivation ladder:
//
//	block[i] = MD5(secret ‖ SHA1(label_i ‖ secret ‖ seed))
//
// where label_i is 'A', 'BB', 'CCC', ... and each block contributes
// 16 bytes until n bytes are produced.
func deriveBytes(secret, seed []byte, n int) []byte {
	out := make([]byte, 0, (n+15)/16*16)
	var sha sha1x.Digest
	var md md5x.Digest
	var label [26]byte // 'A' … 'Z': 416 bytes, past any key block
	var inner [sha1x.Size]byte
	for i := 0; len(out) < n; i++ {
		for j := range label[:i+1] {
			label[j] = byte('A' + i)
		}
		sha.Reset()
		sha.Write(label[:i+1])
		sha.Write(secret)
		sha.Write(seed)
		md.Reset()
		md.Write(secret)
		md.Write(sha.Sum(inner[:0]))
		out = md.Sum(out)
	}
	return out[:n]
}

// MasterSecret derives the 48-byte master secret from the pre-master
// secret and the hello randoms (client random first, per SSLv3 §6.1).
func MasterSecret(preMaster, clientRandom, serverRandom []byte) []byte {
	seed := append(append(make([]byte, 0, 64), clientRandom...), serverRandom...)
	return deriveBytes(preMaster, seed, MasterSecretLen)
}

// KeyBlock derives n bytes of key material from the master secret
// (server random first, per SSLv3 §6.2.2). The block is sliced into
// client/server MAC secrets, keys, and IVs by the record layer.
func KeyBlock(master, clientRandom, serverRandom []byte, n int) []byte {
	seed := append(append(make([]byte, 0, 64), serverRandom...), clientRandom...)
	return deriveBytes(master, seed, n)
}
