// Package workload defines the deterministic request patterns the
// experiments replay: the paper's web-server file-size sweep, and the
// banking-style workload of its conclusion (many short sessions,
// handshake-dominated).
package workload

import "fmt"

// A Transaction is one HTTPS request/response exchange.
type Transaction struct {
	RequestLen  int // client request bytes (HTTP GET analogue)
	ResponseLen int // server response bytes (the "file size")
}

// A Session is a sequence of transactions over one SSL connection,
// optionally resumed from an earlier session.
type Session struct {
	Transactions []Transaction
	Resume       bool // resume rather than full handshake
}

// A Pattern is a named stream of sessions.
type Pattern struct {
	Name     string
	Sessions []Session
}

// DefaultRequestLen models a typical HTTP GET with headers.
const DefaultRequestLen = 350

// FileSweep returns the paper's request-file-size sweep in bytes:
// 1 KB through 32 KB in powers of two (Figures 2 and 3).
func FileSweep() []int {
	return []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10}
}

// Web returns n single-transaction sessions of the given file size —
// the paper's web-server measurement workload.
func Web(n, fileSize int) Pattern {
	p := Pattern{Name: fmt.Sprintf("web-%dB", fileSize)}
	for i := 0; i < n; i++ {
		p.Sessions = append(p.Sessions, Session{
			Transactions: []Transaction{{RequestLen: DefaultRequestLen, ResponseLen: fileSize}},
		})
	}
	return p
}

// Banking returns n short sessions of small transfers, resuming a
// fraction of them — the "banking transactions" of the paper's
// conclusion where session negotiation dominates. resumeRatio in
// [0,1] selects the share of resumed sessions (deterministically
// interleaved).
func Banking(n int, resumeRatio float64) Pattern {
	p := Pattern{Name: "banking"}
	acc := 0.0
	for i := 0; i < n; i++ {
		acc += resumeRatio
		resume := false
		if acc >= 1 {
			acc -= 1
			resume = i > 0 // the first session cannot resume
		}
		p.Sessions = append(p.Sessions, Session{
			Resume: resume,
			Transactions: []Transaction{
				{RequestLen: 200, ResponseLen: 512},
				{RequestLen: 300, ResponseLen: 1024},
			},
		})
	}
	return p
}

// Payload fills a deterministic pseudo-payload of n bytes so
// experiment inputs are reproducible without an RNG dependency.
func Payload(n int) []byte {
	buf := make([]byte, n)
	state := uint32(0x9e3779b9)
	for i := range buf {
		state = state*1664525 + 1013904223
		buf[i] = byte(state >> 24)
	}
	return buf
}

// Response builds the reply sslserver and the load generator's
// in-process server (server.Respond) send for every request: "LEN n\n"
// followed by Payload(n). A server formats it once at start-up and
// every connection writes the same read-only slice — at 1 MiB a
// per-request copy costs more than sealing the records does.
func Response(n int) []byte {
	return append([]byte(fmt.Sprintf("LEN %d\n", n)), Payload(n)...)
}
