// Webserver: a miniature HTTPS server — the Apache + mod_ssl analogue
// of the paper's measurement setup. It serves HTTP/1.0 responses over
// this library's SSL stack on a loopback TCP socket and, run without
// flags, drives a few requests against itself (one full handshake,
// then resumed sessions) and prints per-request timings.
//
// Run with -listen to keep serving (e.g. for sslload or curl-era
// browsers that still speak SSLv3/TLS1.0 — none survive, which is
// rather the point of studying 2005 in a simulator).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"net"
	"strings"
	"time"

	"sslperf/internal/handshake"
	"sslperf/internal/record"
	"sslperf/internal/server"
	"sslperf/internal/ssl"
	"sslperf/internal/workload"
)

var pages = map[string]int{
	"/":          1 << 10, // the paper's 1KB page
	"/small":     512,
	"/medium":    8 << 10,
	"/large":     32 << 10, // the paper's crossover point
	"/b2b-order": 256 << 10,
}

func main() {
	var (
		listen = flag.Bool("listen", false, "keep serving instead of running the demo")
		addr   = flag.String("addr", "127.0.0.1:0", "listen address")
		useTLS = flag.Bool("tls", false, "speak TLS 1.0 instead of SSL 3.0")
	)
	flag.Parse()

	id, err := ssl.NewIdentity(ssl.NewPRNG(7), 1024, "webserver.example", time.Now())
	if err != nil {
		log.Fatal(err)
	}
	srv := &server.Server{
		Config:  ssl.Config{Key: id.Key, CertDER: id.CertDER, SessionCache: handshake.NewSessionCache(1024)},
		Seed:    8,
		Handler: serve,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("https-ish server on %s", ln.Addr())

	if *listen {
		log.Fatal(srv.Serve(ln))
	}
	go srv.Serve(ln) // returns nil once Close is called
	defer srv.Close()

	// Demo client: one fresh session, then resumed ones.
	clientVersion := uint16(record.VersionSSL30)
	if *useTLS {
		clientVersion = record.VersionTLS10
	}
	var session *handshake.Session
	for i, path := range []string{"/", "/", "/medium", "/large"} {
		start := time.Now()
		n, sess, resumed, err := fetch(ln.Addr().String(), path, clientVersion, session)
		if err != nil {
			log.Fatalf("GET %s: %v", path, err)
		}
		session = sess
		fmt.Printf("GET %-8s -> %6d bytes in %8v (resumed=%v)\n",
			path, n, time.Since(start).Round(time.Microsecond), resumed)
		if i == 0 && resumed {
			log.Fatal("first request cannot be resumed")
		}
	}
}

// serve handles one connection: parse minimal HTTP/1.0 GETs, answer
// with deterministic payloads.
func serve(conn *ssl.Conn) {
	r := bufio.NewReader(conn)
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return
		}
		fields := strings.Fields(line)
		if len(fields) < 2 || fields[0] != "GET" {
			fmt.Fprintf(conn, "HTTP/1.0 400 Bad Request\r\n\r\n")
			return
		}
		// Swallow remaining headers.
		for {
			h, err := r.ReadString('\n')
			if err != nil || h == "\r\n" || h == "\n" {
				break
			}
		}
		size, ok := pages[fields[1]]
		if !ok {
			fmt.Fprintf(conn, "HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\n\r\n")
			continue
		}
		body := workload.Payload(size)
		fmt.Fprintf(conn, "HTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n", len(body))
		if _, err := conn.Write(body); err != nil {
			return
		}
	}
}

// fetch performs one HTTPS GET, optionally resuming a session.
func fetch(addr, path string, version uint16, sess *handshake.Session) (int, *handshake.Session, bool, error) {
	tc, err := net.Dial("tcp", addr)
	if err != nil {
		return 0, nil, false, err
	}
	conn := ssl.ClientConn(tc, &ssl.Config{
		Rand:       ssl.NewPRNG(uint64(time.Now().UnixNano())),
		ServerName: "webserver.example",
		Version:    version,
		Session:    sess,
	})
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "GET %s HTTP/1.0\r\n\r\n", path); err != nil {
		return 0, nil, false, err
	}
	r := bufio.NewReader(conn)
	status, err := r.ReadString('\n')
	if err != nil {
		return 0, nil, false, err
	}
	if !strings.Contains(status, "200") {
		return 0, nil, false, fmt.Errorf("status %q", strings.TrimSpace(status))
	}
	contentLen := 0
	for {
		h, err := r.ReadString('\n')
		if err != nil {
			return 0, nil, false, err
		}
		if h == "\r\n" || h == "\n" {
			break
		}
		if strings.HasPrefix(h, "Content-Length: ") {
			fmt.Sscanf(h, "Content-Length: %d", &contentLen)
		}
	}
	buf := make([]byte, contentLen)
	n := 0
	for n < contentLen {
		m, err := r.Read(buf[n:])
		if err != nil {
			return n, nil, false, err
		}
		n += m
	}
	state, err := conn.ConnectionState()
	if err != nil {
		return n, nil, false, err
	}
	newSess, err := conn.Session()
	if err != nil {
		return n, nil, false, err
	}
	return n, newSess, state.Resumed, nil
}
