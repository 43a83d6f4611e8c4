package smtpserver

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/dnsbl"
	"repro/internal/smtp"
	"repro/internal/trace"
)

// testEnv is a running server plus a sink capturing enqueued mails.
type testEnv struct {
	srv     *Server
	addr    string
	mu      sync.Mutex
	mail    []capturedMail
	enqueue Enqueue // optional override, set via setEnqueue before dialing
}

// setEnqueue replaces the capture sink for subsequent deliveries.
func (e *testEnv) setEnqueue(fn Enqueue) {
	e.mu.Lock()
	e.enqueue = fn
	e.mu.Unlock()
}

type capturedMail struct {
	sender string
	rcpts  []string
	data   []byte
}

func (e *testEnv) captured() []capturedMail {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]capturedMail(nil), e.mail...)
}

// startServer boots a server of the given architecture on a loopback
// port. Recipients at @valid.test are accepted. Extra options override
// the test defaults (they append after them).
func startServer(t *testing.T, arch Architecture, opts ...Option) *testEnv {
	t.Helper()
	env := &testEnv{}
	enqueue := func(sender string, rcpts []string, data []byte) (string, error) {
		env.mu.Lock()
		defer env.mu.Unlock()
		if env.enqueue != nil {
			return env.enqueue(sender, rcpts, data)
		}
		env.mail = append(env.mail, capturedMail{
			sender: sender,
			rcpts:  append([]string(nil), rcpts...),
			data:   append([]byte(nil), data...),
		})
		return fmt.Sprintf("Q%d", len(env.mail)), nil
	}
	all := append([]Option{
		WithHostname("mx.test"),
		WithArchitecture(arch),
		WithValidateRcpt(func(addr string) bool {
			return strings.HasSuffix(strings.ToLower(addr), "@valid.test")
		}),
		WithMaxWorkers(4),
		WithIdleTimeout(5 * time.Second),
	}, opts...)
	srv, err := New(enqueue, all...)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // exits on Close
	t.Cleanup(func() { srv.Close() })
	env.srv = srv
	env.addr = ln.Addr().String()
	return env
}

func dial(t *testing.T, env *testEnv) *smtp.Client {
	t.Helper()
	client, err := smtp.Dial(env.addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return client
}

// Both architectures must pass the same behavioural suite.
func forEachArch(t *testing.T, fn func(t *testing.T, arch Architecture)) {
	for _, arch := range []Architecture{Vanilla, Hybrid} {
		t.Run(arch.String(), func(t *testing.T) { fn(t, arch) })
	}
}

func TestDeliverOneMail(t *testing.T) {
	forEachArch(t, func(t *testing.T, arch Architecture) {
		env := startServer(t, arch)
		c := dial(t, env)
		if err := c.Helo("client.test"); err != nil {
			t.Fatal(err)
		}
		n, err := c.Send("sender@remote.test",
			[]string{"a@valid.test", "b@valid.test"}, []byte("hello\r\n"))
		if err != nil || n != 2 {
			t.Fatalf("send = %d, %v", n, err)
		}
		if err := c.Quit(); err != nil {
			t.Fatal(err)
		}
		waitStats(t, env.srv, func(s Stats) bool { return s.MailsAccepted == 1 })
		got := env.captured()
		if len(got) != 1 || got[0].sender != "sender@remote.test" || len(got[0].rcpts) != 2 {
			t.Fatalf("captured = %+v", got)
		}
		if string(got[0].data) != "hello\r\n" {
			t.Fatalf("data = %q", got[0].data)
		}
	})
}

func waitStats(t *testing.T, srv *Server, cond func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for !cond(srv.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("stats never converged: %+v", srv.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestBounceConnection(t *testing.T) {
	forEachArch(t, func(t *testing.T, arch Architecture) {
		env := startServer(t, arch)
		c := dial(t, env)
		c.Helo("h")
		n, err := c.Send("spam@bot.test", []string{"guess1@valid.other", "guess2@valid.other"}, []byte("x"))
		if err != nil || n != 0 {
			t.Fatalf("send = %d, %v", n, err)
		}
		c.Quit()
		waitStats(t, env.srv, func(s Stats) bool { return s.PreTrustClosed == 1 })
		st := env.srv.Stats()
		if st.RcptRejected != 2 {
			t.Fatalf("rcpt rejected = %d, want 2", st.RcptRejected)
		}
		if st.MailsAccepted != 0 {
			t.Fatal("bounce connection delivered mail")
		}
		if arch == Hybrid && st.Handoffs != 0 {
			t.Fatalf("bounce connection delegated to a worker: %+v", st)
		}
	})
}

func TestUnfinishedConnection(t *testing.T) {
	forEachArch(t, func(t *testing.T, arch Architecture) {
		env := startServer(t, arch)
		c := dial(t, env)
		c.Helo("h")
		c.Abort() // hang up mid-session (§4.1)
		waitStats(t, env.srv, func(s Stats) bool { return s.PreTrustClosed == 1 })
		if arch == Hybrid && env.srv.Stats().Handoffs != 0 {
			t.Fatal("unfinished connection was delegated")
		}
	})
}

func TestHybridDelegatesOnlyTrusted(t *testing.T) {
	env := startServer(t, Hybrid)
	// Two bounce connections and one good one.
	for i := 0; i < 2; i++ {
		c := dial(t, env)
		c.Helo("h")
		c.Send("s@x.test", []string{"nope@wrong.test"}, nil)
		c.Quit()
	}
	c := dial(t, env)
	c.Helo("h")
	c.Send("s@x.test", []string{"ok@valid.test"}, []byte("m"))
	c.Quit()
	waitStats(t, env.srv, func(s Stats) bool {
		return s.MailsAccepted == 1 && s.PreTrustClosed == 2
	})
	st := env.srv.Stats()
	if st.Handoffs != 1 {
		t.Fatalf("handoffs = %d, want 1", st.Handoffs)
	}
}

func TestMixedBounceThenValidDelegates(t *testing.T) {
	// A connection whose first RCPT bounces but second is valid must be
	// delegated after the valid one (§5.1).
	env := startServer(t, Hybrid)
	c := dial(t, env)
	c.Helo("h")
	n, err := c.Send("s@x.test", []string{"bad@wrong.test", "good@valid.test"}, []byte("m"))
	if err != nil || n != 1 {
		t.Fatalf("send = %d, %v", n, err)
	}
	c.Quit()
	waitStats(t, env.srv, func(s Stats) bool { return s.MailsAccepted == 1 })
	st := env.srv.Stats()
	if st.Handoffs != 1 || st.RcptRejected != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestHandoffMidBurst: a pipelined MAIL/RCPT/BDAT burst, body and QUIT
// included, earns trust at its RCPT, so the front end hands the
// connection to a worker with two replies still buffered and the chunk
// still unread. While the only worker is busy they wait for it: no
// reply goes out early, none is lost, and the mail is enqueued exactly
// once.
func TestHandoffMidBurst(t *testing.T) {
	env := startServer(t, Hybrid, WithMaxWorkers(1))
	// A trusted connection idling in its dialog holds the one worker.
	holder := dial(t, env)
	if err := holder.Helo("holder.test"); err != nil {
		t.Fatal(err)
	}
	if err := holder.Mail("s@x.test"); err != nil {
		t.Fatal(err)
	}
	if r, err := holder.Rcpt("a@valid.test"); err != nil || r.Code != 250 {
		t.Fatalf("holder RCPT = %v, %v", r, err)
	}
	waitStats(t, env.srv, func(s Stats) bool { return s.Handoffs == 1 })

	nc, err := net.Dial("tcp", env.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c := smtp.NewConn(nc)
	read := func(codes ...int) {
		t.Helper()
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		for _, want := range codes {
			r, err := c.ReadReply()
			if err != nil || r.Code != want {
				t.Fatalf("reply = %v, %v; want %d", r, err, want)
			}
		}
	}
	write := func(s string) {
		t.Helper()
		if _, err := nc.Write([]byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	read(220)
	write("HELO burst.test\r\n")
	read(250)
	body := "Subject: burst\r\n\r\nbody\r\n"
	write(fmt.Sprintf("MAIL FROM:<s@x.test>\r\nRCPT TO:<b@valid.test>\r\nBDAT %d LAST\r\n%sQUIT\r\n", len(body), body))
	waitStats(t, env.srv, func(s Stats) bool { return s.Handoffs == 2 })
	nc.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	r, err := c.ReadReply()
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("with the worker busy read %v, %v; want nothing until it frees", r, err)
	}

	if err := holder.Quit(); err != nil {
		t.Fatal(err)
	}
	read(250, 250, 250, 221)
	got := env.captured()
	if len(got) != 1 || len(got[0].rcpts) != 1 || got[0].rcpts[0] != "b@valid.test" || string(got[0].data) != body {
		t.Fatalf("captured = %+v, want the burst's mail once", got)
	}
}

// TestChunking plays the BDAT rules (RFC 3030) against a real server of
// either architecture, over a raw connection that pipelines each line.
func TestChunking(t *testing.T) {
	forEachArch(t, func(t *testing.T, arch Architecture) {
		env := startServer(t, arch, WithMaxMessageBytes(1024))
		nc, err := net.Dial("tcp", env.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		nc.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
		c := smtp.NewConn(nc)
		play := func(send string, codes ...int) {
			t.Helper()
			if _, err := nc.Write([]byte(send)); err != nil {
				t.Fatal(err)
			}
			for _, want := range codes {
				if r, err := c.ReadReply(); err != nil || r.Code != want {
					t.Fatalf("after %q: reply %v, %v; want %d", send, r, err, want)
				}
			}
		}
		const mail = "MAIL FROM:<s@x.test>\r\n"
		play("", 220)
		play("EHLO c.test\r\n", 250)

		// A chunk before any valid RCPT is read past and fails the
		// transaction, in the front end: no handoff.
		play(mail+"RCPT TO:<g@wrong.test>\r\nBDAT 5 LAST\r\nhello", 250, 550, 554)
		if arch == Hybrid && env.srv.Stats().Handoffs != 0 {
			t.Fatal("a refused chunk was handed to a worker")
		}
		// Chunks line up in the body, raw: no dot codec.
		play(mail+"RCPT TO:<a@valid.test>\r\nBDAT 8\r\n.first\r\nBDAT 0 LAST\r\n", 250, 250, 250, 250)
		// DATA may not follow a chunk, and RSET drops the chunks.
		play(mail+"RCPT TO:<b@valid.test>\r\nBDAT 4\r\ndropDATA\r\nRSET\r\n", 250, 250, 250, 503, 250)
		play(mail+"RCPT TO:<b@valid.test>\r\nBDAT 3 LAST\r\n.\r\n", 250, 250, 250)
		// A chunk past the size cap is not read: 552, and the session ends.
		play(mail+"RCPT TO:<c@valid.test>\r\nBDAT 1025 LAST\r\n", 250, 250, 552)
		if r, err := c.ReadReply(); err == nil {
			t.Fatalf("after the 552 read %v, want the connection closed", r)
		}

		got := env.captured()
		if len(got) != 2 || got[0].rcpts[0] != "a@valid.test" || string(got[0].data) != ".first\r\n" ||
			got[1].rcpts[0] != "b@valid.test" || string(got[1].data) != ".\r\n" {
			t.Fatalf("captured = %+v, want the two chunked mails", got)
		}
	})
}

// TestSMTPSpanExcludesBodyTransfer: a mail's "smtp" span starts once its
// whole body is in, so it measures the same stage under DATA and BDAT. A
// client that pauses before its body — after the 354, or between the
// BDAT LAST line and its bytes — does not lengthen the span.
func TestSMTPSpanExcludesBodyTransfer(t *testing.T) {
	const pause = 30 * time.Millisecond
	const body = "Subject: x\r\n\r\nbody\r\n"
	forEachArch(t, func(t *testing.T, arch Architecture) {
		for _, verb := range []string{"DATA", "BDAT"} {
			t.Run(verb, func(t *testing.T) {
				rec := trace.NewMessageRecorder("node", 64, 1)
				env := startServer(t, arch, WithMessageTracer(rec))
				nc, err := net.Dial("tcp", env.addr)
				if err != nil {
					t.Fatal(err)
				}
				defer nc.Close()
				nc.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
				c := smtp.NewConn(nc)
				play := func(send string, codes ...int) {
					t.Helper()
					if _, err := nc.Write([]byte(send)); err != nil {
						t.Fatal(err)
					}
					for _, want := range codes {
						if r, err := c.ReadReply(); err != nil || r.Code != want {
							t.Fatalf("after %q: reply %v, %v; want %d", send, r, err, want)
						}
					}
				}
				play("", 220)
				play("EHLO c.test\r\n", 250)
				play("MAIL FROM:<s@x.test>\r\nRCPT TO:<a@valid.test>\r\n", 250, 250)
				if verb == "DATA" {
					play("DATA\r\n", 354)
					time.Sleep(pause)
					play(body+".\r\n", 250)
				} else {
					play(fmt.Sprintf("BDAT %d LAST\r\n", len(body)))
					time.Sleep(pause)
					play(body, 250)
				}
				var spans []trace.MessageSpan
				for _, sp := range rec.Spans() {
					if sp.Stage == trace.MStageSMTP {
						spans = append(spans, sp)
					}
				}
				if len(spans) != 1 {
					t.Fatalf("%d smtp spans recorded, want 1", len(spans))
				}
				if d := spans[0].Duration(); d >= pause {
					t.Fatalf("smtp span %v holds the client's %v pause before its body", d, pause)
				}
			})
		}
	})
}

func TestMultipleMailsPerConnection(t *testing.T) {
	forEachArch(t, func(t *testing.T, arch Architecture) {
		env := startServer(t, arch)
		c := dial(t, env)
		c.Helo("h")
		for i := 0; i < 3; i++ {
			if _, err := c.Send("s@x.test", []string{"a@valid.test"}, []byte("m")); err != nil {
				t.Fatal(err)
			}
		}
		c.Quit()
		waitStats(t, env.srv, func(s Stats) bool { return s.MailsAccepted == 3 })
		if arch == Hybrid && env.srv.Stats().Handoffs != 1 {
			t.Fatalf("one connection should delegate once, got %d", env.srv.Stats().Handoffs)
		}
	})
}

func TestConcurrentClients(t *testing.T) {
	forEachArch(t, func(t *testing.T, arch Architecture) {
		env := startServer(t, arch, WithMaxWorkers(3))
		const clients = 12
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c, err := smtp.Dial(env.addr, 5*time.Second)
				if err != nil {
					errs <- err
					return
				}
				if err := c.Helo("h"); err != nil {
					errs <- err
					return
				}
				rcpt := fmt.Sprintf("u%d@valid.test", i)
				if _, err := c.Send("s@x.test", []string{rcpt}, []byte("m")); err != nil {
					errs <- err
					return
				}
				errs <- c.Quit()
			}(i)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		waitStats(t, env.srv, func(s Stats) bool { return s.MailsAccepted == clients })
		if got := len(env.captured()); got != clients {
			t.Fatalf("captured = %d, want %d", got, clients)
		}
	})
}

// TestBlacklistedClientRejected: a listed client draws 554 at connect, and
// while its blacklist lookup is stalled (the Figure 14 failure) nobody else
// waits for it — the lookup runs per connection, never between two Accepts.
// The lookup stays blocked until the unlisted client has its banner, so an
// accept loop that waited for it would never serve that client.
func TestBlacklistedClientRejected(t *testing.T) {
	forEachArch(t, func(t *testing.T, arch Architecture) {
		listed := addr.MustParseIPv4("127.0.0.2")
		looking, answer := make(chan struct{}, 1), make(chan struct{})
		var once sync.Once
		unblock := func() { once.Do(func() { close(answer) }) }
		defer unblock()
		env := startServer(t, arch, dnsblOnly(resolverFunc(func(_ context.Context, ip addr.IPv4) (dnsbl.Result, error) {
			if ip != listed {
				return dnsbl.Result{}, nil
			}
			looking <- struct{}{}
			<-answer
			return dnsbl.Result{Listed: true}, nil
		})))
		// All of 127/8 is loopback: the listed client dials from its alias.
		from := net.Dialer{LocalAddr: &net.TCPAddr{IP: net.IPv4(127, 0, 0, 2)}}
		bad, err := from.Dial("tcp", env.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer bad.Close()
		<-looking

		good, err := net.Dial("tcp", env.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer good.Close()
		good.SetReadDeadline(time.Now().Add(2 * time.Second))
		reply, err := smtp.NewConn(good).ReadReply()
		if err != nil || reply.Code != 220 {
			t.Fatalf("unlisted client behind a stalled lookup: banner %d, %v; want 220", reply.Code, err)
		}

		unblock()
		reply, err = smtp.NewConn(bad).ReadReply()
		if err != nil {
			t.Fatal(err)
		}
		if reply.Code != 554 {
			t.Fatalf("blacklisted banner = %d, want 554", reply.Code)
		}
		waitStats(t, env.srv, func(s Stats) bool { return s.PolicyRejected == 1 })
	})
}

func TestEnqueueFailureReports452(t *testing.T) {
	forEachArch(t, func(t *testing.T, arch Architecture) {
		env := startServer(t, arch)
		env.setEnqueue(func(string, []string, []byte) (string, error) {
			return "", fmt.Errorf("queue full")
		})
		c := dial(t, env)
		c.Helo("h")
		c.Mail("s@x.test")
		c.Rcpt("a@valid.test")
		err := c.Data([]byte("m"))
		if err == nil || !strings.Contains(err.Error(), "452") {
			t.Fatalf("data err = %v, want 452", err)
		}
		c.Quit()
		waitStats(t, env.srv, func(s Stats) bool { return s.EnqueueFailures == 1 })
	})
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, WithArchitecture(Vanilla)); err == nil {
		t.Fatal("missing Enqueue accepted")
	}
	enq := func(string, []string, []byte) (string, error) { return "", nil }
	if _, err := New(enq, WithArchitecture(Architecture(99))); err == nil {
		t.Fatal("bogus architecture accepted")
	}
	// The options path defaults the architecture to Hybrid...
	srv, err := New(enq)
	if err != nil {
		t.Fatal(err)
	}
	if srv.cfg.arch != Hybrid {
		t.Fatalf("default arch = %v, want Hybrid", srv.cfg.arch)
	}
	// ...and an explicit zero Architecture is still rejected, not
	// silently re-defaulted.
	if _, err := New(enq, WithArchitecture(Architecture(0))); err == nil {
		t.Fatal("zero Architecture accepted")
	}
}

func TestCloseIsCleanWithIdleClients(t *testing.T) {
	forEachArch(t, func(t *testing.T, arch Architecture) {
		env := startServer(t, arch)
		// Leave a client mid-session; Close must still return promptly.
		c := dial(t, env)
		c.Helo("h")
		done := make(chan error, 1)
		go func() { done <- env.srv.Close() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Close hung with idle client")
		}
		if err := env.srv.Close(); err == nil {
			t.Fatal("double close accepted")
		}
	})
}

func TestArchitectureString(t *testing.T) {
	if Vanilla.String() != "vanilla" || Hybrid.String() != "hybrid" {
		t.Fatal("architecture names wrong")
	}
	if !strings.Contains(Architecture(9).String(), "9") {
		t.Fatal("unknown architecture string")
	}
}
