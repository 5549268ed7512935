// Banking: the paper's "banking transactions" archetype — many short
// sessions exchanging small amounts of data, where session
// negotiation dominates total cost. The example runs the same
// workload twice, without and with session resumption, and shows the
// handshake-avoidance win the paper attributes to re-negotiation
// ("session re-negotiation using the previously setup keys can avoid
// the public key encryption").
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"sslperf/internal/handshake"
	"sslperf/internal/ssl"
	"sslperf/internal/suite"
	"sslperf/internal/webmodel"
	"sslperf/internal/workload"
)

func main() {
	var (
		sessions = flag.Int("sessions", 50, "number of banking sessions")
	)
	flag.Parse()

	id, err := ssl.NewIdentity(ssl.NewPRNG(20), 1024, "bank.example", time.Now())
	if err != nil {
		log.Fatal(err)
	}
	s, _ := suite.ByName("DES-CBC3-SHA")

	run := func(resumeRatio float64) (time.Duration, time.Duration, int) {
		srv := webmodel.NewServer(id, s)
		pattern := workload.Banking(*sessions, resumeRatio)
		var sslTime time.Duration
		resumed := 0
		var prev *handshake.Session
		for _, sess := range pattern.Sessions {
			var resume *handshake.Session
			if sess.Resume {
				resume = prev
			}
			res, newSess, err := srv.RunSession(sess.Transactions, resume)
			if err != nil {
				log.Fatal(err)
			}
			if res.Resumed {
				resumed++
			}
			sslTime += res.SSLTotal
			prev = newSess
		}
		return sslTime, srv.Split().Public, resumed
	}

	noResume, rsaNo, _ := run(0)
	withResume, rsaYes, resumed := run(0.9)

	fmt.Printf("banking workload: %d sessions of 2 small transactions each\n\n", *sessions)
	fmt.Printf("%-22s %12s %12s %10s\n", "", "SSL time", "RSA time", "resumed")
	fmt.Printf("%-22s %12v %12v %10d\n", "full handshakes", noResume, rsaNo, 0)
	fmt.Printf("%-22s %12v %12v %10d\n", "90% resumption", withResume, rsaYes, resumed)
	fmt.Printf("\nSSL time saved by resumption: %.1f%%\n",
		100*(1-float64(withResume)/float64(noResume)))
	fmt.Printf("RSA time saved:               %.1f%%\n",
		100*(1-float64(rsaYes)/float64(rsaNo)))
}
