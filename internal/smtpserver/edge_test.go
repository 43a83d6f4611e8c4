package smtpserver

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/netip"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/dnsbl"
	"repro/internal/eventlog"
	"repro/internal/smtp"
)

// TestServeReturnsNilAfterClose: a client can connect as soon as the
// listener is bound, and Serve returns nil once Close stops it.
func TestServeReturnsNilAfterClose(t *testing.T) {
	srv, err := New(func(string, []string, []byte) (string, error) { return "Q", nil },
		WithArchitecture(Hybrid))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	c, err := smtp.Dial(ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.Quit() //nolint:errcheck
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve = %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
}

// flakyListener fails its first fails Accepts the way a process out of
// descriptors sees it.
type flakyListener struct {
	net.Listener
	fails atomic.Int64
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.fails.Add(-1) >= 0 {
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: os.NewSyscallError("accept4", syscall.EMFILE)}
	}
	return l.Listener.Accept()
}

// TestAcceptSurvivesDescriptorExhaustion: EMFILE from Accept is waited
// out with a warn event, not returned — a node whose Serve returns is
// stopped — and the next connection's mail is served.
func TestAcceptSurvivesDescriptorExhaustion(t *testing.T) {
	forEachArch(t, func(t *testing.T, arch Architecture) {
		mails := make(chan string, 1)
		log := eventlog.New()
		srv, err := New(func(_ string, _ []string, data []byte) (string, error) {
			mails <- string(data)
			return "Q1", nil
		}, WithArchitecture(arch), WithEventLog(log), WithValidateRcpt(func(string) bool { return true }))
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		flaky := &flakyListener{Listener: ln}
		flaky.fails.Store(2)
		served := make(chan error, 1)
		go func() { served <- srv.Serve(flaky) }()

		sent := make(chan error, 1)
		go func() {
			// The connection waits in the listen backlog until an
			// Accept takes it.
			c, err := smtp.Dial(ln.Addr().String(), 5*time.Second)
			if err == nil {
				c.Helo("client.test") //nolint:errcheck // Send reports a broken dialog
				_, err = c.Send("s@remote.test", []string{"a@valid.test"}, []byte("hello\r\n"))
				c.Quit() //nolint:errcheck
			}
			sent <- err
		}()
		select {
		case got := <-mails:
			if got != "hello\r\n" {
				t.Fatalf("mail = %q", got)
			}
		case err := <-served:
			t.Fatalf("Serve returned %v with a connection waiting", err)
		case <-time.After(5 * time.Second):
			t.Fatal("the waiting connection's mail was never served")
		}
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
		if evs := log.Tail(eventlog.Filter{Name: "smtpd.accept"}); len(evs) != 2 || evs[0].Level != eventlog.LevelWarn {
			t.Fatalf("smtpd.accept events = %+v, want two warnings", evs)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if err := <-served; err != nil {
			t.Fatalf("Serve = %v", err)
		}
	})
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
		if _, err := io.WriteString(nc, "HELO "+strings.Repeat("x", smtp.MaxLineLen+100)+"\r\n"); err != nil {
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
		if _, err := io.WriteString(nc, "HELO ok.example\r\n"); err != nil {
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
		want netip.Addr
	}{
		{&net.TCPAddr{IP: net.IPv4(192, 0, 2, 7), Port: 25}, netip.MustParseAddr("192.0.2.7")},
		{&net.TCPAddr{IP: net.ParseIP("2001:db8::1"), Port: 25}, netip.MustParseAddr("2001:db8::1")},
		{&net.UnixAddr{Name: "/run/smtp.sock", Net: "unix"}, netip.Addr{}},
		{nil, netip.Addr{}},
	} {
		c := peerConn{peer: tc.peer}
		if got := remoteIP(c); got != tc.want {
			t.Errorf("remoteIP(%v) = %v, want %v", tc.peer, got, tc.want)
		}
	}
	// The peer is a value: resolving an IPv4 TCP peer allocates nothing.
	var v4 net.Conn = peerConn{peer: &net.TCPAddr{IP: net.IPv4(192, 0, 2, 7), Port: 25}}
	if n := testing.AllocsPerRun(100, func() { remoteIP(v4) }); n != 0 {
		t.Errorf("remoteIP of an IPv4 TCP peer allocates %.1f objects, want 0", n)
	}
}

// TestDualStackPeerIsPolicedAsIPv4: an IPv4 client of a dual-stack
// listener reaches the server as an IPv4-mapped IPv6 address, and is
// policed and logged as the IPv4 address it is.
func TestDualStackPeerIsPolicedAsIPv4(t *testing.T) {
	ln, err := net.Listen("tcp", "[::]:0")
	if err != nil {
		t.Skipf("no IPv6 listener: %v", err)
	}
	var asked atomic.Uint32
	log := eventlog.New()
	serveOn(t, ln, WithEventLog(log), dnsblOnly(resolverFunc(func(_ context.Context, ip addr.IPv4) (dnsbl.Result, error) {
		asked.Store(uint32(ip))
		return dnsbl.Result{}, nil
	})))
	port := ln.Addr().(*net.TCPAddr).Port
	c, err := smtp.Dial(net.JoinHostPort("127.0.0.1", strconv.Itoa(port)), 5*time.Second)
	if err != nil {
		t.Skipf("the [::] listener is not dual-stack here: %v", err)
	}
	c.Helo("h")
	c.Quit()
	evs := waitEvents(t, log, func(evs []eventlog.Event) bool { return len(evs) == 1 })
	if got := addr.IPv4(asked.Load()); got != addr.MustParseIPv4("127.0.0.1") {
		t.Errorf("blacklist asked about %v, want 127.0.0.1", got)
	}
	if line := string(evs[0].AppendText(nil)); !strings.Contains(line, " ip=127.0.0.1 ") {
		t.Errorf("smtpd.conn = %s, want ip=127.0.0.1", line)
	}
}

// TestOpenConnectionMailAllocs: over one open connection, a mail costs the
// whole process at most one heap object, the string that holds its
// envelope, whatever its recipient count, under either architecture, and
// whether its body comes through DATA (after HELO) or as one BDAT chunk
// (after EHLO), when the enqueue hook keeps nothing.
func TestOpenConnectionMailAllocs(t *testing.T) {
	forEachArch(t, func(t *testing.T, arch Architecture) {
		for _, greet := range []struct {
			verb  string
			hello func(*smtp.Client, string) error
		}{{"DATA", (*smtp.Client).Helo}, {"BDAT", (*smtp.Client).Ehlo}} {
			t.Run(greet.verb, func(t *testing.T) {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				serveOn(t, ln, WithArchitecture(arch))
				c, err := smtp.Dial(ln.Addr().String(), 5*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Quit()
				if err := greet.hello(c, "client.test"); err != nil {
					t.Fatal(err)
				}
				if c.Supports("CHUNKING") != (greet.verb == "BDAT") {
					t.Fatalf("after %s the client sees CHUNKING %v", greet.verb, c.Supports("CHUNKING"))
				}
				body := []byte("Subject: alloc\r\n\r\nbody\r\n")
				for _, n := range []int{1, 8} {
					rcpts := make([]string, n)
					for i := range rcpts {
						rcpts[i] = fmt.Sprintf("user%d@example.test", i)
					}
					send := func() {
						if got, err := c.Send("sender@remote.test", rcpts, body); err != nil || got != n {
							t.Fatalf("send = %d, %v", got, err)
						}
					}
					for i := 0; i < 3; i++ {
						send() // warm-up: the handoff, pooled buffers, the session's slices
					}
					if allocs := testing.AllocsPerRun(200, send); allocs > 1 {
						t.Errorf("a %d-recipient mail allocates %.0f objects, want ≤ 1", n, allocs)
					}
				}
			})
		}
	})
}

// serveOn serves a server whose enqueue hook keeps nothing on ln until the
// test ends.
func serveOn(t *testing.T, ln net.Listener, opts ...Option) {
	t.Helper()
	srv, err := New(func(string, []string, []byte) (string, error) { return "Q", nil }, opts...)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // exits on Close
	t.Cleanup(func() { srv.Close() })
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
