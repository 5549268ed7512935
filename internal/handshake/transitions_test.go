package handshake

import (
	"errors"
	"fmt"
	"testing"

	"sslperf/internal/probe"
	"sslperf/internal/record"
	"sslperf/internal/suite"
)

// side is one end of a sans-IO pair as the illegal-transition test
// drives it.
type side struct {
	core *record.Core
	step func() error
	m    *machine
	// arm installs on c the write state this side seals under after
	// its ChangeCipherSpec.
	arm func(c *record.Core) error
}

// planPair builds a client/server pair that follows plan p: an RSA or
// a DHE suite, or a session of the same server's cache offered again.
func planPair(t *testing.T, p plan) (cli, srv side) {
	id := suite.RSAWith3DESEDECBCSHA
	if p == planDHE {
		id = suite.DHERSAWith3DESEDECBCSHA
	}
	var cache *SessionCache
	var sess *Session
	if p == planResumed {
		cache = NewSessionCache(1)
		cliCore, srvCore, c, s := nonBlockPair(t, id, 11, cache, nil)
		shuttle(t, cliCore, srvCore, c, s, 0)
		sess = c.Result().Session
	}
	cliCore, srvCore, c, s := nonBlockPair(t, id, 12, cache, sess)
	cli = side{cliCore, c.Step, &c.c.machine, func(w *record.Core) error {
		k := c.c.keys
		return armWrite(c.c.version, w, c.c.suite, k.clientKey, k.clientIV, k.clientMAC)
	}}
	srv = side{srvCore, s.Step, &s.s.machine, func(w *record.Core) error {
		k := s.s.keys
		return armWrite(s.s.version, w, s.s.suite, k.serverKey, k.serverIV, k.serverMAC)
	}}
	return cli, srv
}

// park runs the pair until ut waits for the input of its row i,
// feeding it the peer's records one at a time, so that nothing of the
// input row i expects has reached it.
func park(t *testing.T, ut, peer side, i int) {
	var queue [][]byte
	for n := 0; n < 100; n++ {
		if err := ut.step(); err != ErrWouldBlock {
			t.Fatalf("row %d never reached: %v", i, err)
		}
		if ut.m.at == i {
			return
		}
		peer.core.Feed(ut.core.Outgoing())
		ut.core.ConsumeOutgoing(len(ut.core.Outgoing()))
		if err := peer.step(); err != nil && err != ErrWouldBlock {
			t.Fatal(err)
		}
		for out := peer.core.Outgoing(); len(out) > 0; {
			end := 5 + (int(out[3])<<8 | int(out[4]))
			queue = append(queue, append([]byte(nil), out[:end]...))
			out = out[end:]
		}
		peer.core.ConsumeOutgoing(len(peer.core.Outgoing()))
		if len(queue) == 0 {
			t.Fatalf("stalled before row %d", i)
		}
		ut.core.Feed(queue[0])
		queue = queue[1:]
	}
	t.Fatalf("row %d never reached", i)
}

// illegal is one record fed in place of a row's input.
type illegal struct {
	name    string
	typ     record.ContentType
	payload []byte
}

// illegalFor lists what a row expecting want must refuse: every other
// message of the message table, a ChangeCipherSpec unless that is
// want, an alert and application data.
func illegalFor(want input) []illegal {
	var out []illegal
	for _, m := range messages {
		if input(m.typ) != want {
			out = append(out, illegal{m.name, record.TypeHandshake, []byte{m.typ, 0, 0, 0}})
		}
	}
	if want != ccs {
		out = append(out, illegal{"ChangeCipherSpec", record.TypeChangeCipherSpec, []byte{1}})
	}
	return append(out,
		illegal{"alert", record.TypeAlert, []byte{record.AlertLevelFatal, record.AlertHandshakeFailure}},
		illegal{"application data", record.TypeApplicationData, []byte("GET /")})
}

// inputsOf is the input column of a role's plans.
func inputsOf[S any](plans *[numPlans][]row[S]) (out [numPlans][]input) {
	for p, rows := range plans {
		for _, r := range rows {
			out[p] = append(out[p], r.in)
		}
	}
	return out
}

// TestIllegalTransitions is generated from the plans: at every row of
// every plan that reads, each role is fed every input the row does not
// expect — sealed under the peer's live keys once the row follows a
// ChangeCipherSpec — and must end the handshake as bad_message,
// record_error or a peer alert, without a panic. A row added to a plan
// is covered with no edit here.
func TestIllegalTransitions(t *testing.T) {
	planNames := [numPlans]string{planRSA: "rsa", planDHE: "dhe", planResumed: "resumed"}
	for _, client := range []bool{false, true} {
		role, peerSends, plans := "server", byClient, inputsOf(&serverPlans)
		if client {
			role, peerSends, plans = "client", byServer, inputsOf(&clientPlans)
		}
		for p, ins := range plans {
			hello, armed := -1, false
			for i, in := range ins {
				if in == none {
					continue
				}
				if hello < 0 {
					hello = i
				}
				if in != ccs && messages[indexOf(byte(in))].from&peerSends == 0 {
					t.Errorf("%s/%s row %d reads %s, which the peer does not send", role, planNames[p], i, MessageName(byte(in)))
				}
				for _, bad := range illegalFor(in) {
					name := fmt.Sprintf("%s/%s/row%d/%s", role, planNames[p], i, bad.name)
					t.Run(name, func(t *testing.T) {
						ut, peer := planPair(t, plan(p))
						if !client {
							ut, peer = peer, ut
						}
						park(t, ut, peer, i)
						if i > hello && ut.m.plan != plan(p) {
							t.Fatalf("the pair follows plan %d, not %s", ut.m.plan, planNames[p])
						}
						w := record.NewCore()
						w.SetProtocolVersion(record.VersionSSL30)
						if armed {
							if err := peer.arm(w); err != nil {
								t.Fatal(err)
							}
						}
						if err := w.WriteRecord(bad.typ, bad.payload); err != nil {
							t.Fatal(err)
						}
						ut.core.Feed(w.Outgoing())
						err := ut.step()
						var fe *probe.FailError
						var ae *record.AlertError
						switch {
						case errors.As(err, &ae) && ae.Peer:
						case errors.As(err, &fe) && (fe.Class == probe.FailBadMessage || fe.Class == probe.FailRecordError):
						default:
							t.Fatalf("ended in %v (%T), want bad_message, record_error or a peer alert", err, err)
						}
					})
				}
				armed = armed || in == ccs
			}
		}
	}
}

// indexOf is the message table row of type typ.
func indexOf(typ byte) int {
	for i, m := range messages {
		if m.typ == typ {
			return i
		}
	}
	panic(fmt.Sprintf("type %d is not in the message table", typ))
}
