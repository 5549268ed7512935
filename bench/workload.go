package main

import (
	"fmt"
	"runtime"
)

// A workload is one traffic mix: what a client goroutine repeats, over
// which suite, against a server started with which -filesize.
type workload struct {
	Name string
	Why  string
	// Suite is the only cipher suite the clients offer; the server
	// runs its defaults, so this is also the suite negotiated.
	Suite string
	// FileSize is the server's -filesize: every response is
	// "LEN <n>\n" followed by workload.Payload(n).
	FileSize int
	// Persistent workloads establish their connections in set-up and
	// an op is one request/response; otherwise an op is connect +
	// handshake + request/response + close.
	Persistent bool
	// Resume makes every connection after a client's priming one
	// resume that client's previous session.
	Resume bool
}

// The four workloads. Each pair shares a layer and loads it the
// opposite way: the two handshake workloads differ only in whether
// RSA runs, the two record workloads in whether per-byte or per-record
// cost dominates. See README.md for the full reasoning.
var workloads = []*workload{
	{
		Name:     "full_handshake",
		Why:      "connect + full RSA-1024 DES-CBC3-SHA handshake + 1 KiB response + close: rsa/bn step 7 does most of the work, record/cipher almost none",
		Suite:    "DES-CBC3-SHA",
		FileSize: 1 << 10,
	},
	{
		Name:     "resumed_handshake",
		Why:      "same op but every connection resumes: no RSA, so hashing/KDF, message marshalling, session cache, allocation and accept/close syscalls set the cost",
		Suite:    "DES-CBC3-SHA",
		FileSize: 1 << 10,
		Resume:   true,
	},
	{
		Name:       "bulk_download",
		Why:        "1 MiB AES128-SHA responses on established connections: record seal/open, AES, SHA-1, MAC pipeline and writev do all the work, handshake none",
		Suite:      "AES128-SHA",
		FileSize:   1 << 20,
		Persistent: true,
	},
	{
		Name:       "small_records",
		Why:        "6-byte request, 256-byte RC4-MD5 response ping-pong on established connections: per-record fixed cost and syscalls dominate, per-byte cipher cost vanishes",
		Suite:      "RC4-MD5",
		FileSize:   256,
		Persistent: true,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// pinning records where the two processes run. The server gets every
// allowed CPU but the last and the generator the last one, so a busy
// client cannot take cycles from the server it is measuring.
type pinning struct {
	Nproc      int    `json:"nproc"`
	Pinned     bool   `json:"pinned"`
	ServerCPUs []int  `json:"server_cpus,omitempty"`
	ClientCPUs []int  `json:"client_cpus,omitempty"`
	Note       string `json:"note,omitempty"`
}

// pinSelf decides the CPU split and pins this process to its share.
// With one CPU, or when the kernel refuses, both processes run
// unpinned and the header says so.
func pinSelf() *pinning {
	cpus := allowedCPUs()
	p := &pinning{Nproc: len(cpus)}
	if p.Nproc == 0 {
		p.Nproc = runtime.NumCPU()
		p.Note = "unpinned: CPU affinity unavailable on this platform"
		return p
	}
	if p.Nproc == 1 {
		p.Note = "unpinned: one CPU, server and generator share it"
		return p
	}
	server, client := cpus[:p.Nproc-1], cpus[p.Nproc-1:]
	if err := pinProcess(client); err != nil {
		p.Note = "unpinned: sched_setaffinity refused: " + err.Error()
		return p
	}
	runtime.GOMAXPROCS(len(client))
	p.Pinned, p.ServerCPUs, p.ClientCPUs = true, server, client
	return p
}
