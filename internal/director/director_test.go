package director

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/eventlog"
	"repro/internal/policy"
	"repro/internal/smtp"
	"repro/internal/smtpserver"
)

// sink is a shard's enqueue target: it records which recipients the
// shard accepted.
type sink struct {
	mu    sync.Mutex
	mails int
	rcpts map[string]int
}

func newSink() *sink { return &sink{rcpts: make(map[string]int)} }

func (s *sink) enqueue(sender string, rcpts []string, data []byte) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mails++
	for _, r := range rcpts {
		s.rcpts[r]++
	}
	return "id", nil
}

func (s *sink) count(rcpt string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rcpts[rcpt]
}

func (s *sink) total() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mails
}

// startShardServer boots one back-end delivery shard on a loopback
// listener and returns its address, sink, and a kill function. Extra
// options override the defaults.
func startShardServer(t *testing.T, opts ...smtpserver.Option) (string, *sink, func()) {
	t.Helper()
	sk := newSink()
	srv, err := smtpserver.New(sk.enqueue, append([]smtpserver.Option{
		smtpserver.WithHostname("shard.test"),
		smtpserver.WithArchitecture(smtpserver.Vanilla),
		smtpserver.WithIdleTimeout(5 * time.Second),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // exits on Close
	var once sync.Once
	kill := func() {
		once.Do(func() {
			// Close the listener directly too: Serve may not have
			// registered it yet when a test kills the shard immediately.
			ln.Close()
			srv.Close() //nolint:errcheck
		})
	}
	t.Cleanup(kill)
	return ln.Addr().String(), sk, kill
}

// startDirector boots a front end over the given shards.
func startDirector(t *testing.T, opts ...Option) (*Server, string) {
	t.Helper()
	d, err := New(append([]Option{
		WithHostname("fe.test"),
		WithIdleTimeout(5 * time.Second),
		WithForwardTimeout(2 * time.Second),
		WithCooldown(200 * time.Millisecond),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go d.Serve(ln)
	t.Cleanup(d.Close)
	return d, ln.Addr().String()
}

func sendMail(t *testing.T, addr, sender string, rcpts []string) int {
	t.Helper()
	c, err := smtp.Dial(addr, 2*time.Second, smtp.WithCommandTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Quit() //nolint:errcheck
	if err := c.Helo("client.test"); err != nil {
		t.Fatal(err)
	}
	accepted, err := c.Send(sender, rcpts, []byte("Subject: hi\r\n\r\nbody\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	return accepted
}

// TestDirectorForwardsToOwningShard: an accepted envelope is replayed
// to exactly the shard the ring maps its recipient to.
func TestDirectorForwardsToOwningShard(t *testing.T) {
	addrA, sinkA, _ := startShardServer(t)
	addrB, sinkB, _ := startShardServer(t)
	d, feAddr := startDirector(t,
		WithBackend("shard-a", addrA),
		WithBackend("shard-b", addrB),
	)

	sinks := map[string]*sink{"shard-a": sinkA, "shard-b": sinkB}
	for _, rcpt := range []string{"alice@example.org", "bob@example.org", "carol@example.org"} {
		if got := sendMail(t, feAddr, "sender@remote.net", []string{rcpt}); got != 1 {
			t.Fatalf("accepted %d rcpts for %s", got, rcpt)
		}
		owner := d.ring.Pick(rcpt)
		other := "shard-a"
		if owner == other {
			other = "shard-b"
		}
		if sinks[owner].count(rcpt) != 1 {
			t.Fatalf("%s not delivered to owner %s", rcpt, owner)
		}
		if sinks[other].count(rcpt) != 0 {
			t.Fatalf("%s leaked to non-owner %s", rcpt, other)
		}
	}
	st := d.Stats()
	if st.MailsForwarded != 3 || st.MailsFailed != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDirectorMultiRcptFanout: one envelope whose recipients live on
// different shards is split and replayed to both.
func TestDirectorMultiRcptFanout(t *testing.T) {
	addrA, sinkA, _ := startShardServer(t)
	addrB, sinkB, _ := startShardServer(t)
	d, feAddr := startDirector(t,
		WithBackend("shard-a", addrA),
		WithBackend("shard-b", addrB),
	)

	// Find two recipients with different owners.
	corpus := rcptCorpus(100)
	var onA, onB string
	for _, rc := range corpus {
		switch d.ring.Pick(rc) {
		case "shard-a":
			if onA == "" {
				onA = rc
			}
		case "shard-b":
			if onB == "" {
				onB = rc
			}
		}
	}
	if onA == "" || onB == "" {
		t.Fatal("corpus did not cover both shards")
	}
	if got := sendMail(t, feAddr, "s@remote.net", []string{onA, onB}); got != 2 {
		t.Fatalf("accepted %d rcpts, want 2", got)
	}
	if sinkA.count(onA) != 1 || sinkB.count(onB) != 1 {
		t.Fatalf("fanout incomplete: a=%d b=%d", sinkA.count(onA), sinkB.count(onB))
	}
}

// TestDirectorFailsOverOnShardDeath: killing the owning shard must not
// lose the mail — the director walks the ring to the survivor and the
// client still gets its 250.
func TestDirectorFailsOverOnShardDeath(t *testing.T) {
	addrA, sinkA, killA := startShardServer(t)
	addrB, sinkB, killB := startShardServer(t)
	d, feAddr := startDirector(t,
		WithBackend("shard-a", addrA),
		WithBackend("shard-b", addrB),
	)

	rcpt := "victim@example.org"
	owner := d.ring.Pick(rcpt)
	// Prime a pooled connection to the owner so the failover also
	// exercises the stale-pool drain.
	if got := sendMail(t, feAddr, "s@remote.net", []string{rcpt}); got != 1 {
		t.Fatalf("prime accepted %d", got)
	}
	ownerSink, survivorSink := sinkA, sinkB
	if owner == "shard-b" {
		ownerSink, survivorSink = sinkB, sinkA
		killB()
	} else {
		killA()
	}
	if ownerSink.count(rcpt) != 1 {
		t.Fatalf("prime mail missed owner %s", owner)
	}

	if got := sendMail(t, feAddr, "s@remote.net", []string{rcpt}); got != 1 {
		t.Fatalf("post-kill accepted %d, want 1 (mail must not be lost)", got)
	}
	if survivorSink.count(rcpt) != 1 {
		t.Fatalf("failover mail not on survivor (owner=%d survivor=%d)",
			ownerSink.count(rcpt), survivorSink.count(rcpt))
	}
	st := d.Stats()
	if st.ForwardRetries == 0 {
		t.Fatalf("no forward retries recorded: %+v", st)
	}
	if st.MailsFailed != 0 {
		t.Fatalf("mails failed despite a live survivor: %+v", st)
	}
}

// TestDirectorTempfailsWhenAllShardsDead: with every shard gone the
// client gets 451 — a retryable verdict, never silent loss.
func TestDirectorTempfailsWhenAllShardsDead(t *testing.T) {
	addrA, _, killA := startShardServer(t)
	d, feAddr := startDirector(t, WithBackend("shard-a", addrA))
	killA()

	c, err := smtp.Dial(feAddr, 2*time.Second, smtp.WithCommandTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Abort() //nolint:errcheck
	if err := c.Helo("client.test"); err != nil {
		t.Fatal(err)
	}
	// RCPT passes the pre-trust checks (the recipient is valid); the
	// tempfail must come at end-of-data, after the forward fails.
	accepted, err := c.Send("s@remote.net", []string{"x@example.org"}, []byte("m\r\n"))
	if err == nil || !strings.Contains(err.Error(), "451") {
		t.Fatalf("want 451 tempfail, got accepted=%d err=%v", accepted, err)
	}
	st := d.Stats()
	if st.MailsFailed != 1 || st.MailsForwarded != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDirectorValidateRcpt: the access check runs on the director —
// unknown recipients bounce 550 at the front end and never cross to a
// shard.
func TestDirectorValidateRcpt(t *testing.T) {
	addrA, sinkA, _ := startShardServer(t)
	d, feAddr := startDirector(t,
		WithBackend("shard-a", addrA),
		WithValidateRcpt(func(a string) bool { return strings.HasSuffix(a, "@example.org") }),
	)

	c, err := smtp.Dial(feAddr, 2*time.Second, smtp.WithCommandTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Quit() //nolint:errcheck
	if err := c.Helo("client.test"); err != nil {
		t.Fatal(err)
	}
	accepted, err := c.Send("s@remote.net",
		[]string{"ghost@nowhere.net", "real@example.org"}, []byte("m\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 1 {
		t.Fatalf("accepted = %d, want 1", accepted)
	}
	if sinkA.count("ghost@nowhere.net") != 0 {
		t.Fatal("rejected recipient crossed the trust boundary")
	}
	if sinkA.count("real@example.org") != 1 {
		t.Fatal("valid recipient not forwarded")
	}
	if st := d.Stats(); st.RcptRejected != 1 {
		t.Fatalf("RcptRejected = %d, want 1", st.RcptRejected)
	}
}

// TestDirectorSkewIsNotRetried: a shard refusing a recipient over
// clean SMTP is config skew, not shard death — the accepted subset is
// already delivered, so the director must NOT replay the envelope on
// another shard (that would duplicate it). It records the skew and
// answers 250.
func TestDirectorSkewIsNotRetried(t *testing.T) {
	sk := newSink()
	srv, err := smtpserver.New(sk.enqueue,
		smtpserver.WithHostname("shard.test"),
		smtpserver.WithArchitecture(smtpserver.Vanilla),
		smtpserver.WithValidateRcpt(func(a string) bool { return a != "skewed@example.org" }),
	)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)                  //nolint:errcheck
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck

	// Two shards at the same address: the ring has a live failover
	// candidate, which must NOT be used for a clean refusal.
	d, feAddr := startDirector(t,
		WithBackend("shard-a", ln.Addr().String()),
		WithBackend("shard-b", ln.Addr().String()),
	)
	if got := sendMail(t, feAddr, "s@remote.net",
		[]string{"ok@example.org", "skewed@example.org"}); got != 2 {
		t.Fatalf("director accepted %d rcpts, want 2 (no validate hook)", got)
	}
	if sk.count("ok@example.org") != 1 {
		t.Fatalf("delivered %d copies of the accepted rcpt, want exactly 1",
			sk.count("ok@example.org"))
	}
	st := d.Stats()
	if st.RcptSkew != 1 {
		t.Fatalf("RcptSkew = %d, want 1", st.RcptSkew)
	}
	if st.ForwardRetries != 0 || st.MailsFailed != 0 {
		t.Fatalf("clean refusal triggered failover: %+v", st)
	}
}

// TestDirectorAllRcptsRefusedNotAcked: when the shards cleanly refuse
// EVERY recipient of an envelope, nothing was stored anywhere — a 250
// would be silent mail loss, and a retry elsewhere cannot help a
// recipient-based refusal. The director must fail the transaction 554.
func TestDirectorAllRcptsRefusedNotAcked(t *testing.T) {
	sk := newSink()
	srv, err := smtpserver.New(sk.enqueue,
		smtpserver.WithHostname("shard.test"),
		smtpserver.WithArchitecture(smtpserver.Vanilla),
		smtpserver.WithValidateRcpt(func(string) bool { return false }),
	)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)                  //nolint:errcheck
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck

	d, feAddr := startDirector(t,
		WithBackend("shard-a", ln.Addr().String()),
		WithBackend("shard-b", ln.Addr().String()),
	)
	c, err := smtp.Dial(feAddr, 2*time.Second, smtp.WithCommandTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Abort() //nolint:errcheck
	if err := c.Helo("client.test"); err != nil {
		t.Fatal(err)
	}
	_, err = c.Send("s@remote.net", []string{"ghost@example.org"}, []byte("m\r\n"))
	if err == nil || !strings.Contains(err.Error(), "554") {
		t.Fatalf("want 554 for an all-refused envelope, got err=%v", err)
	}
	if n := sk.total(); n != 0 {
		t.Fatalf("sink holds %d deliveries, want 0", n)
	}
	st := d.Stats()
	if st.MailsRefused != 1 || st.MailsForwarded != 0 || st.MailsFailed != 0 {
		t.Fatalf("stats = %+v, want exactly one refused mail", st)
	}
	if st.ForwardRetries != 0 {
		t.Fatalf("clean full refusal triggered failover: %+v", st)
	}
	if st.RcptSkew != 1 {
		t.Fatalf("RcptSkew = %d, want 1", st.RcptSkew)
	}
}

// TestDirectorPoolReuse: sequential dialogs ride the same back-end
// connection — the point of the pool.
func TestDirectorPoolReuse(t *testing.T) {
	addrA, sinkA, _ := startShardServer(t)
	_, feAddr := startDirector(t, WithBackend("shard-a", addrA))
	for i := 0; i < 5; i++ {
		if got := sendMail(t, feAddr, "s@remote.net", []string{"alice@example.org"}); got != 1 {
			t.Fatalf("mail %d accepted %d", i, got)
		}
	}
	if sinkA.count("alice@example.org") != 5 {
		t.Fatalf("delivered %d of 5", sinkA.count("alice@example.org"))
	}
}

// TestDirectorEventsCarryConnIDs: a director records no connection spans,
// and its events must still be attributable — every connection gets its
// own non-zero id, and the policy verdicts of a connection carry the id
// its smtpd.conn event does (what /events?conn= filters on).
func TestDirectorEventsCarryConnIDs(t *testing.T) {
	addr, _, _ := startShardServer(t)
	log := eventlog.New(eventlog.WithLevel(eventlog.LevelDebug))
	_, fe := startDirector(t,
		WithBackend("shard-a", addr),
		WithEventLog(log),
		WithPolicy(policy.NewServerPolicy(policy.New(), nil, policy.WithEventLog(log))),
	)
	const conns = 3
	for i := 0; i < conns; i++ {
		if n := sendMail(t, fe, "s@remote.test", []string{"user@example.org"}); n != 1 {
			t.Fatalf("mail %d: accepted %d recipients", i, n)
		}
	}
	var ended []eventlog.Event
	for deadline := time.Now().Add(3 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if ended = log.Tail(eventlog.Filter{Name: "smtpd.conn"}); len(ended) == conns {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d smtpd.conn events, want %d", len(ended), conns)
		}
	}
	seen := map[uint64]bool{}
	for _, e := range ended {
		if e.Conn == 0 || seen[e.Conn] {
			t.Fatalf("smtpd.conn ids are not distinct and non-zero: %+v", ended)
		}
		seen[e.Conn] = true
		// connect, MAIL and RCPT verdicts of this connection, and no other's.
		if got := log.Tail(eventlog.Filter{Name: "smtpd.policy", Conn: e.Conn}); len(got) != 3 {
			t.Errorf("conn %d: %d smtpd.policy events share its id, want 3", e.Conn, len(got))
		}
	}
}
