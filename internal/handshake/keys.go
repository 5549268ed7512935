package handshake

import (
	"sslperf/internal/bn"
	"sslperf/internal/md5x"
	"sslperf/internal/record"
	"sslperf/internal/sha1x"
	"sslperf/internal/sslcrypto"
	"sslperf/internal/suite"
)

// skeDigest computes the 36-byte MD5‖SHA-1 digest the SSLv3
// ServerKeyExchange signature covers: both hello randoms followed by
// the ServerDHParams bytes.
func skeDigest(clientRandom, serverRandom, params []byte) []byte {
	md := md5x.New()
	md.Write(clientRandom)
	md.Write(serverRandom)
	md.Write(params)
	sha := sha1x.New()
	sha.Write(clientRandom)
	sha.Write(serverRandom)
	sha.Write(params)
	return sha.Sum(md.Sum(nil))
}

// newIntFromBytes builds a big integer from wire bytes.
func newIntFromBytes(b []byte) *bn.Int { return bn.New().SetBytes(b) }

// connKeys is the sliced key block: per-direction MAC secrets, cipher
// keys and IVs, in the SSLv3 §6.2.2 / TLS §6.3 order (identical).
type connKeys struct {
	clientMAC, serverMAC []byte
	clientKey, serverKey []byte
	clientIV, serverIV   []byte
}

// deriveMaster computes the master secret with the negotiated
// version's KDF.
func deriveMaster(version uint16, preMaster, clientRandom, serverRandom []byte) []byte {
	if version >= record.VersionTLS10 {
		return sslcrypto.TLSMasterSecret(preMaster, clientRandom, serverRandom)
	}
	return sslcrypto.MasterSecret(preMaster, clientRandom, serverRandom)
}

// sliceKeyBlock derives and slices the key block for a suite under
// the negotiated version's KDF.
func sliceKeyBlock(version uint16, s *suite.Suite, master, clientRandom, serverRandom []byte) connKeys {
	var kb []byte
	if version >= record.VersionTLS10 {
		kb = sslcrypto.TLSKeyBlock(master, clientRandom, serverRandom, s.KeyMaterialLen())
	} else {
		kb = sslcrypto.KeyBlock(master, clientRandom, serverRandom, s.KeyMaterialLen())
	}
	var k connKeys
	take := func(n int) []byte {
		out := kb[:n]
		kb = kb[n:]
		return out
	}
	k.clientMAC = take(s.MACLen())
	k.serverMAC = take(s.MACLen())
	k.clientKey = take(s.KeyLen)
	k.serverKey = take(s.KeyLen)
	k.clientIV = take(s.IVLen)
	k.serverIV = take(s.IVLen)
	return k
}

// newVersionMAC builds the record MAC for the negotiated version:
// SSLv3's pad construction or TLS 1.0's HMAC.
func newVersionMAC(version uint16, s *suite.Suite, secret []byte) (*sslcrypto.MAC, error) {
	if version >= record.VersionTLS10 {
		return sslcrypto.NewTLSMAC(s.MAC, secret, version)
	}
	return s.NewMAC(secret)
}

// verifyDataFor computes the finished verify data for the version:
// 36 bytes of MD5‖SHA1 with sender padding (SSLv3) or the 12-byte
// PRF output (TLS 1.0).
func verifyDataFor(version uint16, f *sslcrypto.FinishedHash, isClient bool, master []byte) []byte {
	if version >= record.VersionTLS10 {
		return f.TLSVerifyData(isClient, master)
	}
	sender := sslcrypto.SenderServer
	if isClient {
		sender = sslcrypto.SenderClient
	}
	return f.Sum(sender, master)
}

// finishedLenFor returns the finished verify-data length per version.
func finishedLenFor(version uint16) int {
	if version >= record.VersionTLS10 {
		return sslcrypto.TLSFinishedLen
	}
	return FinishedLen
}

// armWrite installs the outbound cipher state for one side.
func armWrite(version uint16, l *record.Core, s *suite.Suite, key, iv, macSecret []byte) error {
	c, err := s.NewCipher(key, iv, true)
	if err != nil {
		return err
	}
	m, err := newVersionMAC(version, s, macSecret)
	if err != nil {
		return err
	}
	l.SetPrimitives(s.CipherAlgo, s.MAC.String())
	l.SetWriteState(c, m)
	return nil
}

// armRead installs the inbound cipher state for one side.
func armRead(version uint16, l *record.Core, s *suite.Suite, key, iv, macSecret []byte) error {
	c, err := s.NewCipher(key, iv, false)
	if err != nil {
		return err
	}
	m, err := newVersionMAC(version, s, macSecret)
	if err != nil {
		return err
	}
	l.SetPrimitives(s.CipherAlgo, s.MAC.String())
	l.SetReadState(c, m)
	return nil
}
