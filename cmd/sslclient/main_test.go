package main

import (
	"testing"

	"sslperf/internal/loadgen"
	"sslperf/internal/ssl"
)

// TestRunResumeChain: four connections with resumption are one full
// handshake and three that resume the session the one before ended with.
func TestRunResumeChain(t *testing.T) {
	srv, err := loadgen.StartServer(loadgen.ServerOptions{KeyBits: 512, FileSize: 256, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	base := &ssl.Config{InsecureSkipVerify: true}
	stats, err := run(srv.Addr(), base, 21, 4, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Done != 4 || stats.Resumed != 3 {
		t.Fatalf("done %d, resumed %d, want 4 and 3", stats.Done, stats.Resumed)
	}
	if stats.Requests != 8 || stats.Bytes != 4*2*256 {
		t.Fatalf("requests %d bytes %d", stats.Requests, stats.Bytes)
	}
}
