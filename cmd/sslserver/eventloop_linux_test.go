//go:build linux

package main

import (
	"bytes"
	"io"
	"log"
	"net"
	"os"
	"syscall"
	"testing"
	"time"

	"sslperf/internal/handshake"
	"sslperf/internal/rsa"
	"sslperf/internal/ssl"
	"sslperf/internal/workload"
)

// TestPumpBoundsPipelinedBacklog plays the peer that pipelines
// requests and does not read: 256 requests go in before the client
// reads a byte back. The connection's outgoing buffer must stop
// growing one response past maxQueued however many requests wait, and
// once the client does read, every response must still arrive, intact
// and in order.
func TestPumpBoundsPipelinedBacklog(t *testing.T) {
	const requests = 256
	response := workload.Response(64 << 10)
	ceiling := maxQueued + len(response) + 4096 // one answer past the mark, plus record framing

	log.SetOutput(io.Discard)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	id, err := ssl.NewIdentity(ssl.NewPRNG(1), 512, "eventloop-test", time.Now())
	if err != nil {
		t.Fatal(err)
	}
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Close(epfd)
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := syscall.SetNonblock(fds[0], true); err != nil {
		t.Fatal(err)
	}
	el := &eventLoop{
		epfd: epfd,
		srv: &server{
			keys: []*rsa.PrivateKey{id.Key}, certs: [][]byte{id.CertDER},
			cache: handshake.NewSessionCache(4), seed: 7,
		},
		response: response,
		conns:    make(map[int]*elConn),
		rbuf:     make([]byte, 64<<10),
		abuf:     make([]byte, 16<<10),
	}
	el.adopt(fds[0], "socketpair")
	c := el.conns[fds[0]]
	if c == nil {
		t.Fatal("the loop did not adopt the socket")
	}
	defer func() {
		if el.conns[fds[0]] == c {
			el.teardown(c)
		}
	}()

	clientFile := os.NewFile(uintptr(fds[1]), "client")
	transport, err := net.FileConn(clientFile)
	clientFile.Close()
	if err != nil {
		t.Fatal(err)
	}
	client := ssl.ClientConn(transport, &ssl.Config{Rand: ssl.NewPRNG(2), InsecureSkipVerify: true})
	defer client.Close()
	sent := make(chan struct{})
	startReading := make(chan struct{})
	clientDone := make(chan error, 1)
	go func() {
		clientDone <- func() error {
			for i := 0; i < requests; i++ {
				if _, err := client.Write([]byte("GET /\n")); err != nil {
					return err
				}
			}
			close(sent)
			<-startReading
			got := make([]byte, len(response))
			for i := 0; i < requests; i++ {
				if _, err := io.ReadFull(client, got); err != nil {
					return err
				}
				if !bytes.Equal(got, response) {
					return io.ErrUnexpectedEOF
				}
			}
			return nil
		}()
	}()

	// serve runs the loop until stop says so, tracking the high-water
	// mark of the connection's outgoing buffer.
	highWater := 0
	events := make([]syscall.EpollEvent, 8)
	serve := func(stop func(quiet bool) bool) {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			n, err := syscall.EpollWait(epfd, events, 20)
			if err != nil && err != syscall.EINTR {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				el.handle(c, events[i].Events)
				highWater = max(highWater, len(c.nc.Outgoing()))
			}
			if stop(n <= 0) {
				return
			}
		}
		t.Fatal("event loop made no progress for 30 s")
	}

	// Until every request is in and the loop has gone quiet.
	allSent := false
	serve(func(quiet bool) bool {
		select {
		case <-sent:
			allSent = true
		case err := <-clientDone:
			t.Fatalf("client: %v", err)
		default:
		}
		return allSent && quiet
	})
	if highWater > ceiling {
		t.Fatalf("outgoing backlog reached %d bytes with %d unread requests pipelined, want <= %d",
			highWater, requests, ceiling)
	}
	if highWater <= len(response) {
		t.Fatalf("outgoing backlog peaked at %d bytes: the peer's socket never filled, so the test proved nothing", highWater)
	}

	close(startReading)
	serve(func(bool) bool {
		select {
		case err := <-clientDone:
			if err != nil {
				t.Fatalf("client: %v", err)
			}
			return true
		default:
			return false
		}
	})
	if highWater > ceiling {
		t.Fatalf("outgoing backlog reached %d bytes while draining, want <= %d", highWater, ceiling)
	}
}
