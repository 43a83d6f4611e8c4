package smtpserver

import (
	"context"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/dnsbl"
	"repro/internal/smtp"
)

func TestListenAndServe(t *testing.T) {
	srv, err := New(func(string, []string, []byte) (string, error) { return "Q", nil },
		WithArchitecture(Hybrid))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0") }()
	// The listener address is not exposed before Serve runs, so probe by
	// closing: ListenAndServe must return nil after Close.
	time.Sleep(20 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ListenAndServe = %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("ListenAndServe did not return after Close")
	}
}

func TestListenAndServeBadAddress(t *testing.T) {
	srv, err := New(func(string, []string, []byte) (string, error) { return "Q", nil },
		WithArchitecture(Vanilla))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.ListenAndServe("127.0.0.1:notaport"); err == nil {
		t.Fatal("bad address accepted")
	}
}

func TestServeTwiceRejected(t *testing.T) {
	env := startServer(t, Hybrid)
	// Make sure the first Serve call has installed its listener before
	// racing a second one against it.
	c := dial(t, env)
	c.Quit()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := env.srv.Serve(ln); err == nil || !strings.Contains(err.Error(), "already serving") {
		t.Fatalf("second Serve = %v", err)
	}
}

func TestServeAfterCloseRejected(t *testing.T) {
	srv, err := New(func(string, []string, []byte) (string, error) { return "Q", nil },
		WithArchitecture(Vanilla))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	time.Sleep(10 * time.Millisecond)
	srv.Close()
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln2.Close()
	if err := srv.Serve(ln2); err == nil {
		t.Fatal("Serve after Close accepted")
	}
}

func TestOverlongCommandLineGets500(t *testing.T) {
	forEachArch(t, func(t *testing.T, arch Architecture) {
		env := startServer(t, arch)
		nc, err := net.Dial("tcp", env.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		c := smtp.NewConn(nc)
		if _, err := c.ReadReply(); err != nil {
			t.Fatal(err)
		}
		// A line far over MaxLineLen: the server answers 500 and stays up.
		if err := c.WriteLine("HELO " + strings.Repeat("x", smtp.MaxLineLen+100)); err != nil {
			t.Fatal(err)
		}
		reply, err := c.ReadReply()
		if err != nil {
			t.Fatal(err)
		}
		if reply.Code != 500 {
			t.Fatalf("overlong line reply = %d, want 500", reply.Code)
		}
		// Session continues normally afterwards.
		if err := c.WriteLine("HELO ok.example"); err != nil {
			t.Fatal(err)
		}
		reply, err = c.ReadReply()
		if err != nil || reply.Code != 250 {
			t.Fatalf("post-overlong HELO = %v, %v", reply, err)
		}
	})
}

func TestOversizeBodyKeepsConnectionAlive(t *testing.T) {
	forEachArch(t, func(t *testing.T, arch Architecture) {
		env := startServer(t, arch, WithMaxMessageBytes(128))
		client := dial(t, env)
		client.Helo("h")
		client.Mail("s@x.test")
		client.Rcpt("a@valid.test")
		if err := client.Data(make([]byte, 4096)); err == nil {
			t.Fatal("oversize body accepted")
		}
		// The transaction was aborted with 552; a fresh one succeeds.
		if _, err := client.Send("s@x.test", []string{"a@valid.test"}, []byte("small")); err != nil {
			t.Fatalf("post-552 transaction failed: %v", err)
		}
		client.Quit()
		waitStats(t, env.srv, func(s Stats) bool { return s.MailsAccepted == 1 })
	})
}

func TestIdleClientTimedOut(t *testing.T) {
	env := startServer(t, Hybrid, WithIdleTimeout(50*time.Millisecond))
	nc, err := net.Dial("tcp", env.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c := smtp.NewConn(nc)
	if _, err := c.ReadReply(); err != nil {
		t.Fatal(err)
	}
	// Say nothing; the server must drop the connection and count it as
	// pre-trust closed.
	waitStats(t, env.srv, func(s Stats) bool { return s.PreTrustClosed == 1 })
}

func TestRemoteIPParsing(t *testing.T) {
	// The policy must be asked about the peer's bare IP, not host:port
	// (which does not parse, and fails open without a lookup).
	var asked atomic.Uint32
	env := startServer(t, Vanilla, dnsblOnly(resolverFunc(func(_ context.Context, ip addr.IPv4) (dnsbl.Result, error) {
		asked.Store(uint32(ip))
		return dnsbl.Result{}, nil
	})))
	c := dial(t, env)
	c.Helo("h")
	c.Quit()
	waitStats(t, env.srv, func(s Stats) bool { return s.Connections == 1 })
	if got := addr.IPv4(asked.Load()); got != addr.MustParseIPv4("127.0.0.1") {
		t.Fatalf("blacklist asked about %v, want 127.0.0.1", got)
	}

	for _, tc := range []struct {
		peer net.Addr
		want string
	}{
		{&net.TCPAddr{IP: net.IPv4(192, 0, 2, 7), Port: 25}, "192.0.2.7"},
		{&net.TCPAddr{IP: net.ParseIP("2001:db8::1"), Port: 25}, "2001:db8::1"},
		{&net.UnixAddr{Name: "/run/smtp.sock", Net: "unix"}, "/run/smtp.sock"},
		{nil, ""},
	} {
		c := peerConn{peer: tc.peer}
		if got := remoteIP(c); got != tc.want {
			t.Errorf("remoteIP(%v) = %q, want %q", tc.peer, got, tc.want)
		}
	}
	// An IPv4 TCP peer costs the one string it returns.
	var v4 net.Conn = peerConn{peer: &net.TCPAddr{IP: net.IPv4(192, 0, 2, 7), Port: 25}}
	if n := testing.AllocsPerRun(100, func() { remoteIP(v4) }); n > 1 {
		t.Errorf("remoteIP of an IPv4 TCP peer allocates %.1f objects, want 1", n)
	}
}

// peerConn is a net.Conn that reports only its remote address.
type peerConn struct {
	net.Conn
	peer net.Addr
}

func (c peerConn) RemoteAddr() net.Addr {
	if c.peer == nil {
		return nil // an untyped nil, as a closed connection reports
	}
	return c.peer
}

// TestValidateRcptBytesWins: given both forms of the recipient hook, in
// either order, only the bytes one is asked.
func TestValidateRcptBytesWins(t *testing.T) {
	str := WithValidateRcpt(func(string) bool { t.Error("string hook asked"); return false })
	byt := WithValidateRcptBytes(func([]byte) bool { return true })
	for _, opts := range [][]Option{{str, byt}, {byt, str}} {
		c := dial(t, startServer(t, Hybrid, opts...))
		c.Helo("h")
		c.Mail("s@remote.test")
		if code := rcptCode(t, c, "anyone@anywhere.test"); code != 250 {
			t.Fatalf("rcpt = %d, want 250 from the bytes hook", code)
		}
		c.Quit()
	}
}
