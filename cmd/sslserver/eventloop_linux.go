//go:build linux

// The -eventloop serving mode: one goroutine, one epoll instance,
// N connections. Each accepted socket gets an ssl.NonBlockingConn —
// the sans-IO core — and the loop shuttles ciphertext between the
// socket and the core on readiness: EPOLLIN feeds bytes in and steps
// the handshake FSM (which suspends with ssl.ErrWouldBlock instead of
// parking a goroutine), EPOLLOUT drains the core's outgoing buffer
// when the socket's send queue filled. An idle keep-alive connection
// costs its buffers and a table entry, not a goroutine stack — the
// memory-per-idle-conn benchmark in internal/ssl quantifies the gap.
package main

import (
	"fmt"
	"log"
	"net"
	"syscall"
	"time"

	"sslperf/internal/record"
	"sslperf/internal/ssl"
)

// elConn is one event-loop connection: the non-blocking SSL core plus
// the socket-facing write backlog.
type elConn struct {
	fd     int
	nc     *ssl.NonBlockingConn
	remote string
	// wantWrite mirrors whether EPOLLOUT is armed: set while the
	// socket's send queue is full and sealed bytes wait in the core.
	wantWrite bool
	// closing is set once the connection should die as soon as its
	// outgoing bytes (terminal alert or close_notify) are flushed.
	closing bool
	// loggedEstablished keeps the per-conn success line to one.
	loggedEstablished bool
}

// maxQueued is the sealed backlog past which a connection stops taking
// requests until the socket drains: one record-layer window.
const maxQueued = 64 * record.MaxFragment

// eventLoop owns the epoll instance and the fd -> connection table.
type eventLoop struct {
	epfd     int
	lfd      int
	srv      *server
	response []byte // what every request is answered with
	conns    map[int]*elConn
	rbuf     []byte // shared socket-read scratch
	abuf     []byte // shared plaintext-read scratch
}

// runEventLoop serves addr forever with a single-threaded epoll loop;
// it only returns on a fatal setup error.
func runEventLoop(addr string, srv *server, response []byte) error {
	lfd, err := listenFD(addr)
	if err != nil {
		return err
	}
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return fmt.Errorf("epoll_create1: %w", err)
	}
	if err := syscall.EpollCtl(epfd, syscall.EPOLL_CTL_ADD, lfd,
		&syscall.EpollEvent{Events: syscall.EPOLLIN, Fd: int32(lfd)}); err != nil {
		return fmt.Errorf("epoll_ctl listener: %w", err)
	}
	el := &eventLoop{
		epfd:     epfd,
		lfd:      lfd,
		srv:      srv,
		response: response,
		conns:    make(map[int]*elConn),
		rbuf:     make([]byte, 64<<10),
		abuf:     make([]byte, 16<<10),
	}
	events := make([]syscall.EpollEvent, 256)
	for {
		n, err := syscall.EpollWait(epfd, events, -1)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return fmt.Errorf("epoll_wait: %w", err)
		}
		for i := 0; i < n; i++ {
			fd := int(events[i].Fd)
			if fd == lfd {
				el.acceptReady()
				continue
			}
			c := el.conns[fd]
			if c == nil {
				continue
			}
			el.handle(c, events[i].Events)
		}
	}
}

// listenFD opens a non-blocking IPv4 listening socket on addr.
func listenFD(addr string) (int, error) {
	ta, err := net.ResolveTCPAddr("tcp", addr)
	if err != nil {
		return -1, err
	}
	var ip4 [4]byte
	if ta.IP != nil {
		v4 := ta.IP.To4()
		if v4 == nil {
			return -1, fmt.Errorf("eventloop: %s is not an IPv4 address", addr)
		}
		copy(ip4[:], v4)
	}
	fd, err := syscall.Socket(syscall.AF_INET,
		syscall.SOCK_STREAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return -1, fmt.Errorf("socket: %w", err)
	}
	if err := syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_REUSEADDR, 1); err != nil {
		syscall.Close(fd)
		return -1, err
	}
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Port: ta.Port, Addr: ip4}); err != nil {
		syscall.Close(fd)
		return -1, fmt.Errorf("bind %s: %w", addr, err)
	}
	if err := syscall.Listen(fd, 1024); err != nil {
		syscall.Close(fd)
		return -1, fmt.Errorf("listen: %w", err)
	}
	return fd, nil
}

// acceptReady drains the accept queue, wrapping each new socket in a
// NonBlockingConn with the same per-connection config (PRNG, batch
// key, observers, trace sampling) the goroutine server builds.
func (el *eventLoop) acceptReady() {
	for {
		fd, sa, err := syscall.Accept4(el.lfd,
			syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC)
		if err == syscall.EAGAIN {
			return
		}
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			log.Printf("accept: %v", err)
			return
		}
		el.adopt(fd, sockaddrString(sa))
	}
}

// adopt puts a connected non-blocking socket under the loop's care.
func (el *eventLoop) adopt(fd int, remote string) {
	cfg, entry := el.srv.configFor()
	entry.Mark("accept", time.Now(), 0)
	nc := ssl.NonBlockingServer(cfg)
	c := &elConn{fd: fd, nc: nc, remote: remote}
	nc.SetRemoteAddr(c.remote)
	if err := syscall.EpollCtl(el.epfd, syscall.EPOLL_CTL_ADD, fd,
		&syscall.EpollEvent{Events: syscall.EPOLLIN | syscall.EPOLLRDHUP, Fd: int32(fd)}); err != nil {
		log.Printf("epoll_ctl add: %v", err)
		syscall.Close(fd)
		return
	}
	el.conns[fd] = c
	// Kick the FSM once: the ClientHello has not arrived, so this
	// suspends immediately — but it opens the connection on its
	// observers, starts their handshake clocks, and parks the table
	// entry in the suspended state.
	el.pump(c)
}

// handle services one readiness notification.
func (el *eventLoop) handle(c *elConn, ev uint32) {
	if ev&(syscall.EPOLLERR|syscall.EPOLLHUP) != 0 {
		el.teardown(c)
		return
	}
	if ev&(syscall.EPOLLIN|syscall.EPOLLRDHUP) != 0 {
		for {
			n, err := syscall.Read(c.fd, el.rbuf)
			if err == syscall.EAGAIN {
				break
			}
			if err == syscall.EINTR {
				continue
			}
			if err != nil || n == 0 {
				// Peer went away; push what the core still holds and die.
				c.closing = true
				break
			}
			c.nc.Feed(el.rbuf[:n])
			if n < len(el.rbuf) {
				break
			}
		}
	}
	el.pump(c)
	if ev&syscall.EPOLLOUT != 0 || len(c.nc.Outgoing()) > 0 {
		el.flush(c)
	}
	if c.closing && len(c.nc.Outgoing()) == 0 {
		el.teardown(c)
	}
}

// pump advances the protocol with whatever bytes are buffered: the
// handshake FSM first, then the request/response loop — mirroring the
// goroutine server's serve(), one response per client record.
func (el *eventLoop) pump(c *elConn) {
	if c.closing {
		return
	}
	if !c.nc.HandshakeDone() {
		err := c.nc.HandshakeStep()
		if err == ssl.ErrWouldBlock {
			el.flush(c)
			return
		}
		if err != nil {
			// Terminal: the core queued a fatal alert; flush it, close.
			el.srv.connLog.Printf("%s: handshake failed (%s): %v",
				c.remote, ssl.FailureReason(err), err)
			c.closing = true
			el.flush(c)
			return
		}
	}
	if !c.loggedEstablished {
		c.loggedEstablished = true
		if state, err := c.nc.ConnectionState(); err == nil {
			el.srv.connLog.Printf("%s: %s resumed=%v",
				c.remote, state.Suite.Name, state.Resumed)
		}
	}
	for !c.closing {
		if len(c.nc.Outgoing()) > maxQueued {
			// A window of answers is already waiting on the socket: a
			// peer that pipelines requests and does not read must not
			// make this connection's buffer grow with every one.
			el.flush(c)
			if c.closing || len(c.nc.Outgoing()) > maxQueued {
				return // torn down, or the EPOLLOUT drain re-enters here
			}
		}
		n, err := c.nc.ReadData(el.abuf)
		if err == ssl.ErrWouldBlock {
			break
		}
		if err == nil && n > 0 {
			_, err = c.nc.WriteData(el.response)
		}
		if err != nil {
			// close_notify (io.EOF) or a record-layer error either way:
			// queue our close_notify and drain.
			c.nc.Close()
			c.closing = true
		}
	}
	el.flush(c)
}

// flush pushes the core's outgoing ciphertext into the socket,
// arming EPOLLOUT while the send queue is full.
func (el *eventLoop) flush(c *elConn) {
	for {
		out := c.nc.Outgoing()
		if len(out) == 0 {
			el.armWrite(c, false)
			return
		}
		n, err := syscall.Write(c.fd, out)
		if err == syscall.EAGAIN {
			el.armWrite(c, true)
			return
		}
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			el.teardown(c)
			return
		}
		c.nc.ConsumeOutgoing(n)
	}
}

// armWrite toggles the EPOLLOUT subscription.
func (el *eventLoop) armWrite(c *elConn, want bool) {
	if c.wantWrite == want {
		return
	}
	c.wantWrite = want
	events := uint32(syscall.EPOLLIN | syscall.EPOLLRDHUP)
	if want {
		events |= syscall.EPOLLOUT
	}
	if err := syscall.EpollCtl(el.epfd, syscall.EPOLL_CTL_MOD, c.fd,
		&syscall.EpollEvent{Events: events, Fd: int32(c.fd)}); err != nil {
		log.Printf("epoll_ctl mod: %v", err)
	}
}

// teardown finalizes the SSL state and releases the socket.
func (el *eventLoop) teardown(c *elConn) {
	c.closing = true
	delete(el.conns, c.fd)
	c.nc.Close()
	syscall.EpollCtl(el.epfd, syscall.EPOLL_CTL_DEL, c.fd, nil)
	syscall.Close(c.fd)
}

// sockaddrString renders an accepted peer address.
func sockaddrString(sa syscall.Sockaddr) string {
	switch a := sa.(type) {
	case *syscall.SockaddrInet4:
		return fmt.Sprintf("%d.%d.%d.%d:%d", a.Addr[0], a.Addr[1], a.Addr[2], a.Addr[3], a.Port)
	case *syscall.SockaddrInet6:
		return fmt.Sprintf("[%v]:%d", net.IP(a.Addr[:]), a.Port)
	}
	return ""
}
