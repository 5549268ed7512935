package ssl

import (
	"testing"

	"sslperf/internal/handshake"
	"sslperf/internal/probe"
	"sslperf/internal/suite"
)

// Each side negotiates only what it offered: a peer that picks a
// suite or a compression method outside the offer ends the handshake
// as bad_message at the hello, sans-IO, one row per check.
func TestNegotiateOnlyOffered(t *testing.T) {
	id := identity(t)
	threeDES := &Config{
		Rand: NewPRNG(73), Time: fixedTestTime, InsecureSkipVerify: true,
		Suites: []suite.ID{suite.RSAWith3DESEDECBCSHA},
	}
	compressed := serverHello(0x0300, suite.RSAWith3DESEDECBCSHA, nil)
	compressed[len(compressed)-1] = 1
	for _, tc := range []struct {
		name string
		conn *NonBlockingConn
		peer []byte
		text string
	}{
		{"client: suite it did not offer", NonBlockingClient(threeDES),
			rec(22, serverHello(0x0300, suite.RSAWithNullMD5, nil)),
			"handshake: server chose cipher suite 0x0001, which the client did not offer"},
		{"client: compression method other than null", peerConn(t, true),
			rec(22, compressed),
			"handshake: server chose compression method 1, which the client did not offer"},
		{"server: ClientHello without null compression", NonBlockingServer(&Config{
			Rand: NewPRNG(74), Key: id.Key, CertDER: id.CertDER, Time: fixedTestTime,
		}),
			rec(22, hs(1, helloBody(0x0300, 0, 2, []int{int(suite.RSAWith3DESEDECBCSHA)}, 1, 1)...)),
			"handshake: ClientHello offers no null compression method"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			start(tc.conn)
			err := feedPeer(tc.conn, tc.peer, func() int { return len(tc.peer) })
			if err == nil {
				t.Fatal("the handshake did not fail")
			}
			if err.Error() != tc.text {
				t.Errorf("error %q, want %q", err, tc.text)
			}
			if got := Classify(err); got != probe.FailBadMessage {
				t.Errorf("Classify(%q) = %v, want bad_message", err, got)
			}
		})
	}
}

// A cached session resumes only with a suite the server still allows:
// a second server sharing the cache but no longer allowing the
// session's suite runs a full handshake instead.
func TestResumeOnlyAllowedSuite(t *testing.T) {
	id := identity(t)
	cache := handshake.NewSessionCache(4)
	offer := []suite.ID{suite.RSAWithRC4128MD5, suite.RSAWith3DESEDECBCSHA}
	server := func(seed uint64, allowed suite.ID) *Config {
		return &Config{
			Rand: NewPRNG(seed), Key: id.Key, CertDER: id.CertDER, Time: fixedTestTime,
			SessionCache: cache, Suites: []suite.ID{allowed},
		}
	}
	cli, _ := nbEstablishedPair(t, &Config{
		Rand: NewPRNG(75), Time: fixedTestTime, InsecureSkipVerify: true, Suites: offer,
	}, server(76, suite.RSAWithRC4128MD5))
	sess, err := cli.Session()
	if err != nil {
		t.Fatal(err)
	}
	cli, srv := nbEstablishedPair(t, &Config{
		Rand: NewPRNG(77), Time: fixedTestTime, InsecureSkipVerify: true, Suites: offer, Session: sess,
	}, server(78, suite.RSAWith3DESEDECBCSHA))
	for _, c := range []*NonBlockingConn{cli, srv} {
		st, err := c.ConnectionState()
		if err != nil {
			t.Fatal(err)
		}
		if st.Resumed || st.Suite.ID != suite.RSAWith3DESEDECBCSHA {
			t.Errorf("%s: resumed %v with %s, want a full handshake with DES-CBC3-SHA", c.role(), st.Resumed, st.Suite.Name)
		}
	}
}
