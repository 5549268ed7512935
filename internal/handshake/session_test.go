package handshake

import (
	"fmt"
	"sync"
	"testing"

	"sslperf/internal/suite"
)

// sess builds a distinct dummy session for cache tests.
func sess(id string) *Session {
	return &Session{
		ID:      []byte(id),
		Suite:   suite.RSAWithRC4128MD5,
		Master:  make([]byte, 48),
		Version: 0x0300,
	}
}

// TestSessionCacheParallel hammers one cache from many goroutines
// with interleaved Put/Get/Len — the shape a busy server produces
// when ≥32 connections finish handshakes concurrently. Run under
// -race (make check does) this is the cache's concurrency contract.
func TestSessionCacheParallel(t *testing.T) {
	c := NewSessionCache(64)
	const goroutines = 32
	const perG = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				id := fmt.Sprintf("sess-%d-%d", g, i%8)
				c.Put(sess(id))
				if got := c.Get([]byte(id)); got != nil && string(got.ID) != id {
					t.Errorf("Get(%q) returned session %q", id, got.ID)
				}
				// Cross-goroutine reads: may hit or miss, must not race.
				c.Get([]byte(fmt.Sprintf("sess-%d-%d", (g+1)%goroutines, i%8)))
				c.Len()
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > 64 {
		t.Fatalf("cache grew past its bound: %d", n)
	}
}

// TestSessionCacheParallelResume mimics concurrent resumption: every
// goroutine resolves the same session while a writer keeps
// re-inserting it.
func TestSessionCacheParallelResume(t *testing.T) {
	c := NewSessionCache(8)
	shared := sess("shared")
	c.Put(shared)
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.Put(sess("shared"))
			c.Put(sess(fmt.Sprintf("churn-%d", i%16)))
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				got := c.Get([]byte("shared"))
				if got == nil {
					// The churn writer may momentarily evict it; what
					// matters is no torn read.
					continue
				}
				if string(got.ID) != "shared" || len(got.Master) != 48 {
					t.Error("torn session read")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-writerDone
}

// TestSessionCacheEvictionOrder pins the FIFO policy: entries leave
// in insertion order, and re-Putting an existing ID neither
// duplicates its order slot nor refreshes its position.
func TestSessionCacheEvictionOrder(t *testing.T) {
	c := NewSessionCache(3)
	c.Put(sess("a"))
	c.Put(sess("b"))
	c.Put(sess("c"))
	// Updating "a" must not move it to the back of the FIFO.
	c.Put(sess("a"))
	c.Put(sess("d")) // evicts "a" (oldest), not "b"
	if c.Get([]byte("a")) != nil {
		t.Fatal("a should have been evicted first (FIFO)")
	}
	for _, id := range []string{"b", "c", "d"} {
		if c.Get([]byte(id)) == nil {
			t.Fatalf("%s missing", id)
		}
	}
	c.Put(sess("e")) // evicts "b"
	if c.Get([]byte("b")) != nil {
		t.Fatal("b should have been evicted second")
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
}
