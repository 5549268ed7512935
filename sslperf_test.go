package sslperf_test

import (
	"io"
	"testing"
	"time"

	"sslperf"
	"sslperf/internal/probe"
)

// TestFacadeEndToEnd exercises the public API exactly as the README's
// quickstart does: identity, pipe, handshake, echo, resumption.
func TestFacadeEndToEnd(t *testing.T) {
	id, err := sslperf.NewIdentity(sslperf.NewPRNG(1), 512, "facade", time.Now())
	if err != nil {
		t.Fatal(err)
	}
	cache := sslperf.NewSessionCache(8)

	run := func(session *sslperf.Session) (*sslperf.Conn, *sslperf.Conn) {
		ct, st := sslperf.Pipe()
		client := sslperf.ClientConn(ct, &sslperf.Config{
			Rand:               sslperf.NewPRNG(2),
			InsecureSkipVerify: true,
			Session:            session,
		})
		server := sslperf.ServerConn(st, &sslperf.Config{
			Rand:         sslperf.NewPRNG(3),
			Key:          id.Key,
			CertDER:      id.CertDER,
			SessionCache: cache,
		})
		errc := make(chan error, 1)
		go func() { errc <- client.Handshake() }()
		if err := server.Handshake(); err != nil {
			t.Fatal(err)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		return client, server
	}

	client, server := run(nil)
	go client.Write([]byte("facade"))
	buf := make([]byte, 6)
	if _, err := io.ReadFull(server, buf); err != nil || string(buf) != "facade" {
		t.Fatalf("echo: %q %v", buf, err)
	}
	sess, err := client.Session()
	if err != nil {
		t.Fatal(err)
	}

	client2, _ := run(sess)
	state, _ := client2.ConnectionState()
	if !state.Resumed {
		t.Fatal("facade resumption failed")
	}
}

func TestFacadeAnatomy(t *testing.T) {
	id, err := sslperf.NewIdentity(sslperf.NewPRNG(4), 512, "anat", time.Now())
	if err != nil {
		t.Fatal(err)
	}
	// A step sink on the server's Config.Observer, the one seam.
	var steps int
	var total time.Duration
	ct, st := sslperf.Pipe()
	client := sslperf.ClientConn(ct, &sslperf.Config{
		Rand: sslperf.NewPRNG(5), InsecureSkipVerify: true,
	})
	server := sslperf.ServerConn(st, &sslperf.Config{
		Rand: sslperf.NewPRNG(6), Key: id.Key, CertDER: id.CertDER,
		Observer: probe.SinkFunc(func(e probe.Event) {
			if e.Kind == probe.KindStepExit {
				steps++
				total += e.Dur
			}
		}),
	})
	go client.Handshake()
	if err := server.Handshake(); err != nil {
		t.Fatal(err)
	}
	if steps < 9 || total == 0 {
		t.Fatalf("anatomy: %d steps, total %v", steps, total)
	}
}

func TestFacadeSuites(t *testing.T) {
	if len(sslperf.Suites()) != 11 {
		t.Fatalf("suites = %d", len(sslperf.Suites()))
	}
	s, err := sslperf.SuiteByName("DES-CBC3-SHA")
	if err != nil || s.Name != "DES-CBC3-SHA" {
		t.Fatal(err)
	}
}

func TestFacadeExperiments(t *testing.T) {
	if len(sslperf.Experiments()) != 24 {
		t.Fatalf("experiments = %d", len(sslperf.Experiments()))
	}
	e, err := sslperf.ExperimentByID("table4")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(&sslperf.ExperimentConfig{Quick: true, KeyBits: 512})
	if err != nil || len(rep.Tables) == 0 {
		t.Fatalf("run: %v", err)
	}
}
