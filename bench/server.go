package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir is where everything the benchmark writes goes: the server
// binary, the run directories with server logs. The root .gitignore
// names it.
const buildDir = ".bench_build"

// repoRoot walks up from the working directory to the go.mod of the
// sslperf module.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(b), "module sslperf\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the sslperf module: no go.mod with \"module sslperf\" above the working directory")
		}
		dir = parent
	}
}

// buildServer compiles cmd/sslserver into the build directory and
// returns the binary's path. It runs before any clock starts.
func buildServer(root string) (string, error) {
	bin := filepath.Join(root, buildDir, "bin", "sslserver")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/sslserver")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/sslserver: %v\n%s", err, out)
	}
	return bin, nil
}

// freePort asks the kernel for an unused loopback port. The server
// logs the -addr flag, not the bound address, so ":0" would leave the
// benchmark unable to find it.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := ln.Addr().(*net.TCPAddr).Port
	return port, ln.Close()
}

// A server is one running sslserver child.
type server struct {
	cmd     *exec.Cmd
	addr    *net.TCPAddr
	logPath string
	exited  chan struct{} // closed once Wait has returned
}

// live is every server started and not yet stopped, and the run
// directory their logs are in, so that a signal can kill and remove
// them all on the way out.
var live = struct {
	sync.Mutex
	servers map[*server]struct{}
	runDir  string
}{servers: map[*server]struct{}{}}

// stopAllServers kills every live server, waits for each, and removes
// the run directory.
func stopAllServers() {
	live.Lock()
	all := make([]*server, 0, len(live.servers))
	for s := range live.servers {
		all = append(all, s)
	}
	dir := live.runDir
	live.Unlock()
	for _, s := range all {
		s.stop()
	}
	if dir != "" {
		os.RemoveAll(dir)
	}
}

// startServer spawns sslserver with its default flags plus only
// -addr -seed -keybits -filesize, on serverCPUs when pinning is on,
// and returns as soon as the process exists; waitReady tells when it
// listens.
func startServer(bin, runDir string, w *workload, seed uint64, pin *pinning) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: port}
	logf, err := os.CreateTemp(runDir, "sslserver-"+w.Name+"-*.log")
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin,
		"-addr", addr.String(),
		"-seed", strconv.FormatUint(seed, 10),
		"-keybits", "1024",
		"-filesize", strconv.Itoa(w.FileSize))
	cmd.Stdout = logf
	cmd.Stderr = logf
	if pin.Pinned {
		err = startPinned(pin.ServerCPUs, pin.ClientCPUs, cmd.Start)
	} else {
		err = cmd.Start()
	}
	if err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, addr: addr, logPath: logf.Name(), exited: make(chan struct{})}
	go func() {
		cmd.Wait() // the exit status of a killed server carries nothing
		close(s.exited)
	}()
	live.Lock()
	live.servers[s] = struct{}{}
	live.Unlock()
	return s, nil
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// waitReady polls until the server accepts a TCP connection. The
// probe connection is closed unused; the server logs it as one failed
// handshake.
func (s *server) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		c, err := net.DialTCP("tcp", nil, s.addr)
		if err == nil {
			c.Close()
			return nil
		}
		select {
		case <-s.exited:
			return fmt.Errorf("sslserver exited before listening on %s", s.addr)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("sslserver not listening on %s after %v: %v", s.addr, timeout, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop kills the server and waits until it has ended.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGKILL) // fails only if it already exited
	<-s.exited
	live.Lock()
	delete(live.servers, s)
	live.Unlock()
}

// logTail returns the last n lines the server wrote.
func (s *server) logTail(n int) string {
	b, err := os.ReadFile(s.logPath)
	if err != nil {
		return fmt.Sprintf("(no server log: %v)", err)
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}
