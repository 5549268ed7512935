package ssl

import (
	"io"
	"testing"

	"sslperf/internal/handshake"
	"sslperf/internal/probe"
	"sslperf/internal/suite"
	"sslperf/internal/telemetry"
)

func TestDHEHandshakeDetails(t *testing.T) {
	id := identity(t)
	ccfg := clientCfg(func(c *Config) {
		c.Suites = []suite.ID{suite.DHERSAWithAES128CBCSHA}
	})
	client, server := connect(t, ccfg, id.ServerConfig(NewPRNG(41)))
	cs, err := client.ConnectionState()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Suite.Kx != suite.KxDHERSA {
		t.Fatal("negotiated suite is not DHE")
	}
	// Data flows.
	go client.Write([]byte("dhe!"))
	buf := make([]byte, 4)
	if _, err := io.ReadFull(server, buf); err != nil || string(buf) != "dhe!" {
		t.Fatalf("transfer: %q %v", buf, err)
	}
}

func TestDHEAnatomyHasServerKx(t *testing.T) {
	id := identity(t)
	reg := telemetry.NewRegistry()
	scfg := id.ServerConfig(NewPRNG(42))
	scfg.Observer = observing(reg, 1)
	ct, st := Pipe()
	client := ClientConn(ct, clientCfg(func(c *Config) {
		c.Suites = []suite.ID{suite.DHERSAWith3DESEDECBCSHA}
	}))
	server := ServerConn(st, scfg)
	go client.Handshake()
	if err := server.Handshake(); err != nil {
		t.Fatal(err)
	}
	a := reg.Anatomy()
	var kxStep *telemetry.AnatomyStep
	for i := range a.Steps {
		if a.Steps[i].Name == "send_server_kx" {
			kxStep = &a.Steps[i]
		}
	}
	if kxStep == nil {
		t.Fatalf("no send_server_kx step; steps: %v", stepNames(a))
	}
	var sawGen, sawSign bool
	for _, c := range kxStep.Crypto {
		switch c.Name {
		case probe.FnDHGenerateKey:
			sawGen = true
		case probe.FnRSASign:
			sawSign = true
		}
	}
	if !sawGen || !sawSign {
		t.Fatalf("send_server_kx crypto calls: %+v", kxStep.Crypto)
	}
	// The DHE handshake pays BOTH a DH exponentiation and an RSA
	// signature — its public-key cost must exceed plain RSA's share
	// of work; at minimum the kx step itself must be expensive.
	if kxStep.MeanKcyc == 0 {
		t.Fatal("kx step cost not recorded")
	}
}

func TestDHEResumptionWorks(t *testing.T) {
	id := identity(t)
	cache := handshake.NewSessionCache(8)
	scfg := id.ServerConfig(NewPRNG(43))
	scfg.SessionCache = cache
	ccfg := clientCfg(func(c *Config) {
		c.Suites = []suite.ID{suite.DHERSAWithAES128CBCSHA}
	})
	client, _ := connect(t, ccfg, scfg)
	sess, _ := client.Session()

	scfg2 := id.ServerConfig(NewPRNG(44))
	scfg2.SessionCache = cache
	ccfg2 := clientCfg(func(c *Config) {
		c.Suites = []suite.ID{suite.DHERSAWithAES128CBCSHA}
		c.Session = sess
	})
	client2, _ := connect(t, ccfg2, scfg2)
	cs, _ := client2.ConnectionState()
	if !cs.Resumed {
		t.Fatal("DHE session did not resume")
	}
}

func stepNames(a telemetry.Anatomy) []string {
	var out []string
	for _, s := range a.Steps {
		out = append(out, s.Name)
	}
	return out
}
