// Command sslclient drives HTTPS-like transactions against sslserver
// (the curl analogue of the paper's client machine) and reports
// handshake and transfer latencies, with optional session resumption.
// It makes one connection at a time; sslload -concurrency loads a
// server from many at once.
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
		reqPerCon = flag.Int("requests", 1, "requests per connection")
		resume    = flag.Bool("resume", false, "resume the previous connection's session after the first")
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
	stats, err := run(*addr, base, seedVal, *n, *reqPerCon, *resume)

	fmt.Printf("connections: %d (%d resumed)\n", stats.Done, stats.Resumed)
	if stats.Done > 0 {
		fmt.Printf("avg handshake: %v\n", stats.Handshake/time.Duration(stats.Done))
		fmt.Printf("avg transaction: %v\n", stats.Transfer/time.Duration(stats.Requests))
	}
	fmt.Printf("payload bytes: %d\n", stats.Bytes)
	if err != nil {
		log.Fatal(err)
	}
}

// runStats aggregates one run's successful connections.
type runStats struct {
	Done     int
	Resumed  int
	Requests int

	Handshake time.Duration // summed across connections
	Transfer  time.Duration // summed across requests
	Bytes     int
}

// run makes n connections one after another from one PRNG. With
// resume, every connection after the first offers the session the one
// before it ended with — the browser-like chain the paper's client
// machines model. The first failed connection ends the run.
func run(addr string, base *ssl.Config, seed uint64, n, reqPerCon int, resume bool) (runStats, error) {
	var stats runStats
	rnd := ssl.NewPRNG(seed)
	var session *handshake.Session
	for i := 0; i < n; i++ {
		hs, xfer, bytes, resumed, err := transact(addr, base, rnd, session, resume, reqPerCon, &session)
		if err != nil {
			return stats, fmt.Errorf("conn %d: %w", i, err)
		}
		stats.Done++
		stats.Requests += reqPerCon
		stats.Handshake += hs
		stats.Transfer += xfer
		stats.Bytes += bytes
		if resumed {
			stats.Resumed++
		}
	}
	return stats, nil
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
