// Package chaostest holds the fault fixtures that tests in several packages
// share: a TCP proxy that severs every connection it forwards on demand — a
// network blip — and a poll that waits until no goroutine runs a given
// frame. It imports nothing of the engine, so the tests of any package,
// internal/rt/remote's own included, can use it (package chaos imports the
// TCP runtime, which that package's internal tests cannot import).
package chaostest

import (
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// Proxy forwards TCP connections to a target and can sever every
// established one at once while it keeps accepting new ones: a network
// blip, which a coordinator sees as suspect, then (its probe dials through)
// active.
type Proxy struct {
	ln       net.Listener
	wg       sync.WaitGroup
	mu       sync.Mutex
	conns    []net.Conn
	accepted int
	closed   bool
}

// NewProxy listens on a loopback port and forwards every connection it
// accepts to target. The test's cleanup closes it and waits for its
// goroutines.
func NewProxy(t testing.TB, target string) *Proxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &Proxy{ln: ln}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				c.Close()
				continue
			}
			p.mu.Lock()
			if p.closed {
				p.mu.Unlock()
				c.Close()
				up.Close()
				return
			}
			p.conns = append(p.conns, c, up)
			p.accepted++
			p.mu.Unlock()
			p.wg.Add(2)
			go func() { defer p.wg.Done(); io.Copy(up, c); up.Close() }()
			go func() { defer p.wg.Done(); io.Copy(c, up); c.Close() }()
		}
	}()
	t.Cleanup(func() {
		p.mu.Lock()
		p.closed = true
		p.mu.Unlock()
		ln.Close()
		p.DropAll()
		p.wg.Wait()
	})
	return p
}

// Addr returns the address the proxy listens on.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Accepted returns how many connections the proxy has forwarded so far.
func (p *Proxy) Accepted() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.accepted
}

// DropAll severs every live proxied connection.
func (p *Proxy) DropAll() {
	p.mu.Lock()
	conns := p.conns
	p.conns = nil
	p.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// WaitNoGoroutine polls until no goroutine's stack mentions frame and fails
// the test if one still does after 10 seconds: goroutines that are
// unwinding after a hang-up need a moment.
func WaitNoGoroutine(t testing.TB, frame string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	buf := make([]byte, 1<<20)
	for {
		var leaked []string
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, frame) {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutine(s) still in %s:\n\n%s", len(leaked), frame, strings.Join(leaked, "\n\n"))
		}
		time.Sleep(time.Millisecond)
	}
}
