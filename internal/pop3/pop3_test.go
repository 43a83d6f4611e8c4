package pop3

import (
	"bufio"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/fsim"
	"repro/internal/mailstore"
)

// testClient is a minimal POP3 client for the tests.
type testClient struct {
	t  *testing.T
	nc net.Conn
	r  *bufio.Reader
}

func dialPOP3(t *testing.T, addr string) *testClient {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	c := &testClient{t: t, nc: nc, r: bufio.NewReader(nc)}
	if got := c.line(); !strings.HasPrefix(got, "+OK") {
		t.Fatalf("banner = %q", got)
	}
	return c
}

func (c *testClient) line() string {
	c.t.Helper()
	line, err := c.r.ReadString('\n')
	if err != nil {
		c.t.Fatal(err)
	}
	return strings.TrimRight(line, "\r\n")
}

// cmd sends a command and returns the single status line.
func (c *testClient) cmd(line string) string {
	c.t.Helper()
	if _, err := c.nc.Write([]byte(line + "\r\n")); err != nil {
		c.t.Fatal(err)
	}
	return c.line()
}

// multi reads a dot-terminated multi-line payload (after a +OK).
func (c *testClient) multi() []string {
	c.t.Helper()
	var lines []string
	for {
		l := c.line()
		if l == "." {
			return lines
		}
		lines = append(lines, strings.TrimPrefix(l, "."))
	}
}

// startServer boots a POP3 server over an MFS store with three mails for
// alice (one shared with bob).
func startServer(t *testing.T, mutate ...func(*Config)) (*testClient, mailstore.Store, *Server) {
	t.Helper()
	store, err := mailstore.NewMFS(fsim.NewMem(costmodel.FSModel{}), "mfs")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	mails := []struct {
		id    string
		rcpts []string
		body  string
	}{
		{"m1", []string{"alice"}, "Subject: one\r\n\r\nfirst\r\n"},
		{"m2", []string{"alice", "bob"}, "Subject: two\r\n\r\n.dot line\r\nshared\r\n"},
		{"m3", []string{"alice"}, "Subject: three\r\n\r\nthird\r\n"},
	}
	for _, m := range mails {
		if err := store.Deliver(m.id, m.rcpts, []byte(m.body)); err != nil {
			t.Fatal(err)
		}
	}
	cfg := Config{Store: store, Hostname: "pop.test", IdleTimeout: 5 * time.Second}
	for _, m := range mutate {
		m(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	t.Cleanup(func() { srv.Close() })
	return dialPOP3(t, ln.Addr().String()), store, srv
}

func login(t *testing.T, c *testClient, user string) {
	t.Helper()
	if got := c.cmd("USER " + user); !strings.HasPrefix(got, "+OK") {
		t.Fatalf("USER = %q", got)
	}
	if got := c.cmd("PASS secret"); !strings.HasPrefix(got, "+OK") {
		t.Fatalf("PASS = %q", got)
	}
}

func TestStatListUidl(t *testing.T) {
	c, _, _ := startServer(t)
	login(t, c, "alice")
	stat := c.cmd("STAT")
	if !strings.HasPrefix(stat, "+OK 3 ") {
		t.Fatalf("STAT = %q", stat)
	}
	if got := c.cmd("LIST"); !strings.HasPrefix(got, "+OK 3 messages") {
		t.Fatalf("LIST = %q", got)
	}
	rows := c.multi()
	if len(rows) != 3 || !strings.HasPrefix(rows[0], "1 ") {
		t.Fatalf("LIST rows = %v", rows)
	}
	if got := c.cmd("LIST 2"); !strings.HasPrefix(got, "+OK 2 ") {
		t.Fatalf("LIST 2 = %q", got)
	}
	if got := c.cmd("UIDL"); !strings.HasPrefix(got, "+OK") {
		t.Fatalf("UIDL = %q", got)
	}
	uids := c.multi()
	if len(uids) != 3 || uids[1] != "2 m2" {
		t.Fatalf("UIDL rows = %v", uids)
	}
}

func TestRetrDotStuffedRoundTrip(t *testing.T) {
	c, _, srv := startServer(t)
	login(t, c, "alice")
	if got := c.cmd("RETR 2"); !strings.HasPrefix(got, "+OK") {
		t.Fatalf("RETR = %q", got)
	}
	body := strings.Join(c.multi(), "\r\n") + "\r\n"
	want := "Subject: two\r\n\r\n.dot line\r\nshared\r\n"
	if body != want {
		t.Fatalf("RETR body = %q, want %q", body, want)
	}
	// The counter moves after the body's last flush, so the client can
	// read the whole body first.
	waitFor(t, func() bool { return srv.Stats().Retrieved == 1 })
}

func TestDeleAppliedAtQuit(t *testing.T) {
	c, store, srv := startServer(t)
	login(t, c, "alice")
	if got := c.cmd("DELE 1"); !strings.HasPrefix(got, "+OK") {
		t.Fatalf("DELE = %q", got)
	}
	// Deleted messages disappear from the listing but the store is
	// untouched until QUIT.
	if got := c.cmd("STAT"); !strings.HasPrefix(got, "+OK 2 ") {
		t.Fatalf("STAT after DELE = %q", got)
	}
	if got := c.cmd("RETR 1"); !strings.HasPrefix(got, "-ERR") {
		t.Fatalf("RETR deleted = %q", got)
	}
	if ids, _ := store.List("alice"); len(ids) != 3 {
		t.Fatal("store modified before QUIT")
	}
	if got := c.cmd("QUIT"); !strings.HasPrefix(got, "+OK") {
		t.Fatalf("QUIT = %q", got)
	}
	waitFor(t, func() bool { return srv.Stats().Deleted == 1 })
	ids, err := store.List("alice")
	if err != nil || len(ids) != 2 || ids[0] != "m2" {
		t.Fatalf("after quit: %v, %v", ids, err)
	}
	// The shared mail survives for bob.
	if _, err := store.Read("bob", "m2"); err != nil {
		t.Fatalf("bob's copy: %v", err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never true")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestRsetRestoresDeleted(t *testing.T) {
	c, store, _ := startServer(t)
	login(t, c, "alice")
	c.cmd("DELE 1")
	c.cmd("DELE 3")
	if got := c.cmd("RSET"); !strings.HasPrefix(got, "+OK") {
		t.Fatalf("RSET = %q", got)
	}
	if got := c.cmd("STAT"); !strings.HasPrefix(got, "+OK 3 ") {
		t.Fatalf("STAT after RSET = %q", got)
	}
	c.cmd("QUIT")
	if ids, _ := store.List("alice"); len(ids) != 3 {
		t.Fatal("RSET did not cancel deletions")
	}
}

func TestAuthRequired(t *testing.T) {
	c, _, _ := startServer(t)
	for _, cmd := range []string{"STAT", "LIST", "RETR 1", "DELE 1", "UIDL", "RSET"} {
		if got := c.cmd(cmd); !strings.HasPrefix(got, "-ERR") {
			t.Fatalf("%s before login = %q", cmd, got)
		}
	}
	if got := c.cmd("PASS x"); !strings.HasPrefix(got, "-ERR") {
		t.Fatalf("PASS before USER = %q", got)
	}
}

func TestAuthenticatorRejects(t *testing.T) {
	c, _, srv := startServer(t, func(cfg *Config) {
		cfg.Auth = func(user, pass string) bool { return pass == "correct" }
	})
	c.cmd("USER alice")
	if got := c.cmd("PASS wrong"); !strings.HasPrefix(got, "-ERR") {
		t.Fatalf("bad PASS = %q", got)
	}
	if srv.Stats().AuthFails != 1 {
		t.Fatal("auth failure not counted")
	}
	// USER must be resent after a failure.
	if got := c.cmd("PASS correct"); !strings.HasPrefix(got, "-ERR") {
		t.Fatalf("PASS without USER = %q", got)
	}
	c.cmd("USER alice")
	if got := c.cmd("PASS correct"); !strings.HasPrefix(got, "+OK") {
		t.Fatalf("good PASS = %q", got)
	}
}

func TestEmptyMaildrop(t *testing.T) {
	c, _, _ := startServer(t)
	login(t, c, "nobody-yet")
	if got := c.cmd("STAT"); got != "+OK 0 0" {
		t.Fatalf("empty STAT = %q", got)
	}
}

func TestBadMessageNumbers(t *testing.T) {
	c, _, _ := startServer(t)
	login(t, c, "alice")
	for _, cmd := range []string{"RETR 0", "RETR 9", "RETR x", "DELE 99", "LIST 7", "UIDL 0"} {
		if got := c.cmd(cmd); !strings.HasPrefix(got, "-ERR") {
			t.Fatalf("%s = %q", cmd, got)
		}
	}
}

func TestUnknownCommandAndNoop(t *testing.T) {
	c, _, _ := startServer(t)
	if got := c.cmd("XYZZY"); !strings.HasPrefix(got, "-ERR") {
		t.Fatalf("XYZZY = %q", got)
	}
	if got := c.cmd("NOOP"); !strings.HasPrefix(got, "+OK") {
		t.Fatalf("NOOP = %q", got)
	}
}

func TestConcurrentSessions(t *testing.T) {
	c1, _, srv := startServer(t)
	login(t, c1, "alice")
	// A second concurrent session on another mailbox.
	var c2 *testClient
	func() {
		nc, err := net.Dial("tcp", c1.nc.RemoteAddr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
		c2 = &testClient{t: t, nc: nc, r: bufio.NewReader(nc)}
		c2.line() // banner
	}()
	login(t, c2, "bob")
	if got := c2.cmd("STAT"); !strings.HasPrefix(got, "+OK 1 ") {
		t.Fatalf("bob STAT = %q", got)
	}
	if got := c1.cmd("STAT"); !strings.HasPrefix(got, "+OK 3 ") {
		t.Fatalf("alice STAT = %q", got)
	}
	c1.cmd("QUIT")
	c2.cmd("QUIT")
	waitFor(t, func() bool { return srv.Stats().Sessions == 2 })
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil store accepted")
	}
}

func TestCloseIdempotentAndServeAfterClose(t *testing.T) {
	store, err := mailstore.NewMFS(fsim.NewMem(costmodel.FSModel{}), "mfs")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv, _ := New(Config{Store: store})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	time.Sleep(10 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve after Close = %v", err)
	}
	if err := srv.Close(); err == nil {
		t.Fatal("double Close accepted")
	}
	ln2, _ := net.Listen("tcp", "127.0.0.1:0")
	defer ln2.Close()
	if err := srv.Serve(ln2); err == nil {
		t.Fatal("Serve on closed server accepted")
	}
}
