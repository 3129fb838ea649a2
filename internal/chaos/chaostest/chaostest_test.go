package chaostest

import (
	"bufio"
	"io"
	"net"
	"testing"
)

// TestProxyForwardsAndSevers: a connection through the proxy reaches the
// target and is counted; DropAll severs it, and the proxy still forwards a
// new one. Once the subtest's cleanup has closed the proxy, none of its
// goroutines is left.
func TestProxyForwardsAndSevers(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { // echo server
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { io.Copy(c, c); c.Close() }()
		}
	}()
	echo := func(t *testing.T, p *Proxy) net.Conn {
		t.Helper()
		c, err := net.Dial("tcp", p.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write([]byte("ping\n")); err != nil {
			t.Fatal(err)
		}
		if line, err := bufio.NewReader(c).ReadString('\n'); err != nil || line != "ping\n" {
			t.Fatalf("echo through the proxy: %q, %v", line, err)
		}
		return c
	}
	t.Run("proxy", func(t *testing.T) {
		p := NewProxy(t, ln.Addr().String())
		c := echo(t, p)
		defer c.Close()
		if n := p.Accepted(); n != 1 {
			t.Errorf("Accepted = %d after one connection, want 1", n)
		}
		p.DropAll()
		if _, err := c.Read(make([]byte, 1)); err == nil {
			t.Error("a connection through the proxy survived DropAll")
		}
		echo(t, p).Close()
		if n := p.Accepted(); n != 2 {
			t.Errorf("Accepted = %d after a second connection, want 2", n)
		}
	})
	WaitNoGoroutine(t, "chaostest.NewProxy")
}
