package ssl

import (
	"reflect"
	"slices"
	"testing"

	"sslperf/internal/handshake"
	"sslperf/internal/probe"
	"sslperf/internal/suite"
)

// eventCount is an Observer counting the events of every connection it
// watches; a pointer, so a Config holding it stays comparable.
type eventCount struct{ n int }

func (c *eventCount) Observe() probe.Sink {
	return probe.SinkFunc(func(probe.Event) { c.n++ })
}

// snapshot copies cfg deeply enough that a handshake writing to it —
// a field, or an element of a slice or of the session it points at —
// leaves the copy different. What the pointers lead to past that (the
// key, the session cache, the randomness and the observer) is shared
// state the handshake uses, not settings.
func snapshot(cfg *Config) Config {
	c := *cfg
	c.Suites = slices.Clone(cfg.Suites)
	c.CertDER = slices.Clone(cfg.CertDER)
	if cfg.Session != nil {
		s := *cfg.Session
		s.ID, s.Master = slices.Clone(s.ID), slices.Clone(s.Master)
		c.Session = &s
	}
	return c
}

// TestHandshakeLeavesConfigUnchanged holds both handshake machines to
// reading the caller's Config and never writing it: after a full and a
// resumed handshake, on both connection types, each end's Config is
// deep-equal to a copy taken before. The configs leave Rand, Version
// and the client's Suites at their zero values, so a default written
// back (a resolved PRNG, a version, the offered suite list) shows, and
// the server's one Config serves both handshakes, as a shared server
// config does.
func TestHandshakeLeavesConfigUnchanged(t *testing.T) {
	id := identity(t)
	type pair func(t testing.TB, ccfg, scfg *Config) (*handshake.Session, bool)
	blocking := func(t testing.TB, ccfg, scfg *Config) (*handshake.Session, bool) {
		client, server := connect(t, ccfg, scfg)
		defer client.Close()
		defer server.Close()
		sess, _ := client.Session()
		st, _ := server.ConnectionState()
		return sess, st.Resumed
	}
	nonBlocking := func(t testing.TB, ccfg, scfg *Config) (*handshake.Session, bool) {
		client, server := nbEstablishedPair(t, ccfg, scfg)
		defer client.Close()
		defer server.Close()
		sess, _ := client.Session()
		st, _ := server.ConnectionState()
		return sess, st.Resumed
	}
	for _, conn := range []struct {
		name string
		run  pair
	}{{"blocking", blocking}, {"non-blocking", nonBlocking}} {
		t.Run(conn.name, func(t *testing.T) {
			scfg := &Config{
				Key: id.Key, CertDER: id.CertDER,
				Suites:       []suite.ID{suite.RSAWith3DESEDECBCSHA, suite.RSAWithRC4128MD5},
				SessionCache: handshake.NewSessionCache(4),
				Observer:     &eventCount{},
			}
			var sess *handshake.Session
			for _, mode := range []string{"full", "resumed"} {
				ccfg := &Config{InsecureSkipVerify: true, Session: sess, Observer: &eventCount{}}
				cBefore, sBefore := snapshot(ccfg), snapshot(scfg)
				var resumed bool
				sess, resumed = conn.run(t, ccfg, scfg)
				if resumed != (mode == "resumed") {
					t.Fatalf("%s: resumed = %v", mode, resumed)
				}
				if !reflect.DeepEqual(*ccfg, cBefore) {
					t.Errorf("%s: the client's handshake wrote to its Config:\n got %+v\nwant %+v", mode, *ccfg, cBefore)
				}
				if !reflect.DeepEqual(*scfg, sBefore) {
					t.Errorf("%s: the server's handshake wrote to its Config:\n got %+v\nwant %+v", mode, *scfg, sBefore)
				}
				if ccfg.Observer.(*eventCount).n == 0 || scfg.Observer.(*eventCount).n == 0 {
					t.Errorf("%s: an observer saw no events", mode)
				}
			}
		})
	}
}
