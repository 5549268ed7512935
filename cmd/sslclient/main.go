// Command sslclient drives HTTPS-like transactions against sslserver
// (the curl analogue of the paper's client machine) and reports
// handshake and transfer latencies, with optional session resumption
// and concurrent connections (-parallel) for loading the server from
// many connections at once.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"strconv"
	"strings"
	"time"

	"sslperf/internal/handshake"
	"sslperf/internal/record"
	"sslperf/internal/ssl"
	"sslperf/internal/suite"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:4433", "server address")
		n         = flag.Int("n", 10, "number of connections")
		parallel  = flag.Int("parallel", 1, "concurrent connections (each worker gets its own PRNG and session chain)")
		reqPerCon = flag.Int("requests", 1, "requests per connection")
		resume    = flag.Bool("resume", false, "resume sessions after each worker's first connection")
		suiteName = flag.String("suite", "", "restrict to one cipher suite")
		seed      = flag.Uint64("seed", 0, "PRNG seed (0 = time-based)")
		useTLS    = flag.Bool("tls", false, "offer TLS 1.0 instead of SSL 3.0")
	)
	flag.Parse()

	seedVal := *seed
	if seedVal == 0 {
		seedVal = uint64(time.Now().UnixNano())
	}
	base := &ssl.Config{InsecureSkipVerify: true}
	if *useTLS {
		base.Version = record.VersionTLS10
	}
	if *suiteName != "" {
		s, err := suite.ByName(*suiteName)
		if err != nil {
			log.Fatal(err)
		}
		base.Suites = []suite.ID{s.ID}
	}
	stats := runPool(*addr, base, seedVal, *n, *parallel, *reqPerCon, *resume, log.Printf)

	fmt.Printf("connections: %d (%d resumed, %d failed, %d workers)\n",
		stats.Done, stats.Resumed, stats.Failed, stats.Workers)
	if stats.Done > 0 {
		fmt.Printf("avg handshake: %v\n", stats.Handshake/time.Duration(stats.Done))
		fmt.Printf("avg transaction: %v\n", stats.Transfer/time.Duration(stats.Requests))
	}
	fmt.Printf("payload bytes: %d\n", stats.Bytes)
	if stats.Failed > 0 {
		log.Fatalf("%d connections failed", stats.Failed)
	}
}

// transact runs one connection: handshake, reqPerCon request/response
// exchanges, then records the session for resumption.
func transact(addr string, base *ssl.Config, rnd *ssl.PRNG,
	session *handshake.Session, resume bool, reqPerCon int,
	sessionOut **handshake.Session) (hs, xfer time.Duration, bytes int, resumed bool, err error) {

	tc, err := net.Dial("tcp", addr)
	if err != nil {
		return 0, 0, 0, false, err
	}
	defer tc.Close()
	connCfg := *base
	connCfg.Rand = rnd
	if resume {
		connCfg.Session = session
	}
	conn := ssl.ClientConn(tc, &connCfg)

	start := time.Now()
	if err := conn.Handshake(); err != nil {
		return 0, 0, 0, false, fmt.Errorf("handshake: %w", err)
	}
	hs = time.Since(start)
	state, _ := conn.ConnectionState()
	resumed = state.Resumed

	r := bufio.NewReader(conn)
	for j := 0; j < reqPerCon; j++ {
		start = time.Now()
		if _, err := conn.Write([]byte("GET /\n")); err != nil {
			return 0, 0, 0, false, err
		}
		line, err := r.ReadString('\n')
		if err != nil {
			return 0, 0, 0, false, err
		}
		size, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, "LEN ")))
		if err != nil {
			return 0, 0, 0, false, fmt.Errorf("bad response header %q", line)
		}
		if _, err := io.CopyN(io.Discard, r, int64(size)); err != nil {
			return 0, 0, 0, false, err
		}
		xfer += time.Since(start)
		bytes += size
	}
	*sessionOut, _ = conn.Session()
	conn.Close()
	return hs, xfer, bytes, resumed, nil
}
