package pop3

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"errors"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/fsim"
	"repro/internal/mailstore"
	"repro/internal/metrics"
)

// serve runs a server with cfg on a loopback listener and returns a
// client connected to it.
func serve(t *testing.T, cfg Config) (*testClient, *Server) {
	t.Helper()
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
	return dialPOP3(t, ln.Addr().String()), srv
}

// bigMail returns a body of size bytes made of numbered CRLF lines, none
// of which starts with a dot, so its wire form is the body plus ".\r\n".
func bigMail(size int) []byte {
	body := make([]byte, 0, size+64)
	for i := 0; len(body) < size; i++ {
		body = strconv.AppendInt(append(body, "line "...), int64(i), 10)
		body = append(body, " of a mail too large to buffer\r\n"...)
	}
	body = body[:size]
	body[size-2], body[size-1] = '\r', '\n'
	return body
}

// diskStore returns an MFS store on a temporary directory holding one
// mail of size bytes in mailbox "big", and the mail's SHA-256.
func diskStore(t *testing.T, size int) (*mailstore.MFS, [32]byte) {
	t.Helper()
	store, err := mailstore.NewMFS(fsim.NewOS(t.TempDir()), "mfs")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	body := bigMail(size)
	if err := store.Deliver("big1", []string{"big"}, body); err != nil {
		t.Fatal(err)
	}
	return store, sha256.Sum256(body)
}

// tail keeps the count and the last bytes of what is written to it.
type tail struct {
	n    int64
	last []byte
}

func (w *tail) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	w.last = append(w.last, p...)
	if len(w.last) > 64 {
		w.last = append(w.last[:0], w.last[len(w.last)-64:]...)
	}
	return len(p), nil
}

func (w *tail) terminated() bool { return bytes.HasSuffix(w.last, []byte("\r\n.\r\n")) }

// TestRetrStalledClientTimesOut: a client that sends RETR and stops
// reading is cut off after IdleTimeout without progress, mid-body, and
// the session's goroutine goes; a client that keeps reading is not.
func TestRetrStalledClientTimesOut(t *testing.T) {
	const size = 32 << 20 // beyond what the loopback socket buffers hold
	store, _ := diskStore(t, size)
	c, srv := serve(t, Config{Store: store, IdleTimeout: 200 * time.Millisecond})
	login(t, c, "big")
	if _, err := c.nc.Write([]byte("RETR 1\r\n")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Second)
	c.nc.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	var got tail
	if _, err := io.Copy(&got, c.r); err != nil {
		t.Fatalf("after %d bytes: %v (want EOF)", got.n, err)
	}
	if got.n >= size || got.terminated() {
		t.Fatalf("a client that stopped reading got %d bytes of a %d-byte mail, terminated=%v", got.n, size, got.terminated())
	}
	if n := srv.Stats().Retrieved; n != 0 {
		t.Fatalf("Retrieved = %d for a cut-off RETR", n)
	}

	// A slow but steady reader finishes: the deadline is per chunk.
	c = dialPOP3(t, c.nc.RemoteAddr().String())
	login(t, c, "big")
	if got := c.cmd("RETR 1"); got != "+OK "+strconv.Itoa(size)+" octets" {
		t.Fatalf("RETR = %q", got)
	}
	var whole tail
	for !whole.terminated() {
		if _, err := io.CopyN(&whole, c.r, 4<<20); err != nil {
			if err == io.EOF && whole.terminated() {
				break // the session idled out after the RETR, as it should
			}
			t.Fatalf("after %d bytes: %v", whole.n, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if whole.n != size+3 {
		t.Fatalf("read %d bytes, want %d", whole.n, size+3)
	}
}

// TestRetrHoldsNoStoreLock: while a RETR's client is not reading, the
// session holds no lock of the store — a delivery to the same mailbox
// completes — and the body the client then reads is whole.
func TestRetrHoldsNoStoreLock(t *testing.T) {
	const size = 32 << 20
	store, sum := diskStore(t, size)
	c, _ := serve(t, Config{Store: store, IdleTimeout: 10 * time.Second})
	login(t, c, "big")
	if got := c.cmd("RETR 1"); got != "+OK "+strconv.Itoa(size)+" octets" {
		t.Fatalf("RETR = %q", got)
	}
	time.Sleep(200 * time.Millisecond) // the session is now blocked on the socket
	done := make(chan error, 1)
	go func() { done <- store.Deliver("small", []string{"big", "other"}, []byte("hi\r\n")) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a delivery to the mailbox waited on a RETR whose client is not reading")
	}
	h := sha256.New()
	for {
		line, err := c.r.ReadSlice('\n')
		if err != nil {
			t.Fatal(err)
		}
		if string(line) == ".\r\n" {
			break
		}
		h.Write(line)
	}
	if !bytes.Equal(h.Sum(nil), sum[:]) {
		t.Fatal("the body read after the delivery differs from the stored one")
	}
}

// TestRetrReadErrorEndsSession: a store read that fails after the first
// chunk has gone out ends the session without the terminating dot, so the
// client cannot take the short body for a whole one, and the RETR is not
// counted as a retrieval.
func TestRetrReadErrorEndsSession(t *testing.T) {
	fs := fsim.NewFault()
	store, err := mailstore.NewMFS(fs, "mfs")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	const size = 256 << 10 // several chunks
	body := bigMail(size)
	if err := store.Deliver("big1", []string{"big"}, body); err != nil {
		t.Fatal(err)
	}
	var reads atomic.Int64
	fs.SetHook(func(op, path string, n int) error {
		if op == "ReadAt" && path == "mfs/boxes/big.data" && reads.Add(1) > 1 {
			return errors.New("disk on fire")
		}
		return nil
	})
	reg := metrics.NewRegistry()
	c, srv := serve(t, Config{Store: store, IdleTimeout: 5 * time.Second, Registry: reg})
	login(t, c, "big")
	if got := c.cmd("RETR 1"); got != "+OK "+strconv.Itoa(len(body))+" octets" {
		t.Fatalf("RETR = %q", got)
	}
	c.nc.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	rest, err := io.ReadAll(c.r)
	if err != nil {
		t.Fatalf("after %d bytes: %v (want EOF)", len(rest), err)
	}
	if len(rest) == 0 || len(rest) >= len(body) || !bytes.HasPrefix(body, rest) {
		t.Fatalf("client read %d bytes of a %d-byte mail, prefix=%v", len(rest), len(body), bytes.HasPrefix(body, rest))
	}
	if reads.Load() != 2 {
		t.Fatalf("%d data-file reads, want 2 (the first chunk and the failed one)", reads.Load())
	}
	if n := srv.Stats().Retrieved; n != 0 {
		t.Fatalf("Retrieved = %d for a RETR whose read failed", n)
	}
	if m, _ := reg.Find("pop3_retr_seconds"); m.Count != 0 {
		t.Fatalf("pop3_retr_seconds counted %d failed RETRs", m.Count)
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

// TestServeSurvivesDescriptorExhaustion: EMFILE from Accept is waited
// out, not returned; the next connection is served.
func TestServeSurvivesDescriptorExhaustion(t *testing.T) {
	_, store, _ := startServer(t)
	srv, err := New(Config{Store: store})
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

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	c := &testClient{t: t, nc: nc, r: bufio.NewReader(nc)}
	if got := c.line(); !strings.HasPrefix(got, "+OK") {
		t.Fatalf("banner = %q", got)
	}
	login(t, c, "alice")
	if got := c.cmd("RETR 1"); !strings.HasPrefix(got, "+OK") {
		t.Fatalf("RETR = %q", got)
	}
	if body := strings.Join(c.multi(), "\r\n"); body != "Subject: one\r\n\r\nfirst" {
		t.Fatalf("RETR body = %q", body)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve = %v", err)
	}
}

// TestMetricsOnTheRegistry: the counters Stats reads are the registry's
// pop3_* series, and every whole RETR is one pop3_retr_seconds sample.
func TestMetricsOnTheRegistry(t *testing.T) {
	reg := metrics.NewRegistry()
	c, store, srv := startServer(t, func(cfg *Config) {
		cfg.Registry = reg
		cfg.Auth = func(user, pass string) bool { return pass == "secret" }
	})
	c.cmd("USER alice")
	c.cmd("PASS wrong")
	login(t, c, "alice")
	for _, n := range []string{"1", "2"} {
		if got := c.cmd("RETR " + n); !strings.HasPrefix(got, "+OK") {
			t.Fatalf("RETR %s = %q", n, got)
		}
		c.multi()
	}
	c.cmd("DELE 1")
	c.cmd("QUIT")
	waitFor(t, func() bool { ids, _ := store.List("alice"); return len(ids) == 2 })
	st := srv.Stats()
	if st != (Stats{Sessions: 1, Retrieved: 2, Deleted: 1, AuthFails: 1}) {
		t.Fatalf("Stats = %+v", st)
	}
	for name, want := range map[string]float64{
		"pop3_sessions_total": 1, "pop3_retrieved_total": 2,
		"pop3_deleted_total": 1, "pop3_auth_failures_total": 1,
	} {
		if m, ok := reg.Find(name); !ok || m.Value != want {
			t.Fatalf("%s = %v (registered %v), want %v", name, m.Value, ok, want)
		}
	}
	if m, ok := reg.Find("pop3_retr_seconds"); !ok || m.Count != 2 || m.Sum <= 0 {
		t.Fatalf("pop3_retr_seconds = %+v", m)
	}
}

// TestRetrCountedBeforeTheDot: a RETR moves pop3_retrieved_total and
// pop3_retr_seconds before the last byte of its terminating dot leaves,
// so a client that holds the dot never scrapes a count without its
// RETR. Over net.Pipe a write returns only once the client has read it,
// which makes the order visible.
func TestRetrCountedBeforeTheDot(t *testing.T) {
	store, err := mailstore.NewMFS(fsim.NewMem(costmodel.FSModel{}), "mfs")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	if err := store.Deliver("m1", []string{"alice"}, []byte("Subject: one\r\n\r\nfirst\r\n")); err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	srv, err := New(Config{Store: store, Hostname: "pop.test", IdleTimeout: 5 * time.Second, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	server, client := net.Pipe()
	srv.wg.Add(1)
	go srv.serveConn(server)
	t.Cleanup(func() {
		client.Close() // the session ends at EOF, then Close has nothing to wait for
		srv.Close()
	})
	c := &testClient{t: t, nc: client, r: bufio.NewReader(client)}
	if got := c.line(); !strings.HasPrefix(got, "+OK") {
		t.Fatalf("banner = %q", got)
	}
	login(t, c, "alice")
	if got := c.cmd("RETR 1"); !strings.HasPrefix(got, "+OK") {
		t.Fatalf("RETR = %q", got)
	}
	c.multi()
	if m, _ := reg.Find("pop3_retrieved_total"); m.Value != 1 {
		t.Fatalf("pop3_retrieved_total = %v with the dot read, want 1", m.Value)
	}
	if m, _ := reg.Find("pop3_retr_seconds"); m.Count != 1 {
		t.Fatalf("pop3_retr_seconds has %d samples with the dot read, want 1", m.Count)
	}
}
