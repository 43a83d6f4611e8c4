package smtpserver

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/netip"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/dnsbl"
	"repro/internal/policy"
	"repro/internal/smtp"
)

// listedAll is a stub DNSBL resolver that lists every IP.
type listedAll struct{}

func (listedAll) Lookup(context.Context, addr.IPv4) (dnsbl.Result, error) {
	return dnsbl.Result{Listed: true, Code: dnsbl.CodeSpamSrc}, nil
}

// resolverFunc adapts a function to dnsbl.Resolver.
type resolverFunc func(ctx context.Context, ip addr.IPv4) (dnsbl.Result, error)

func (f resolverFunc) Lookup(ctx context.Context, ip addr.IPv4) (dnsbl.Result, error) {
	return f(ctx, ip)
}

// dnsblOnly is the policy `smtpd -dnsbl` runs without -policy: 554 at
// connect for what r lists, and nothing else.
func dnsblOnly(r dnsbl.Resolver) Option {
	return WithPolicy(policy.NewServerPolicy(policy.New(policy.WithDNSBLReject(1)),
		policy.NewScorer(policy.WithLists(policy.List{Name: "bl.test", Resolver: r, Weight: 1}))))
}

// rcptCode runs one RCPT and returns the reply code regardless of
// accept/override.
func rcptCode(t *testing.T, c *smtp.Client, rcpt string) int {
	t.Helper()
	r, err := c.Rcpt(rcpt)
	if err != nil {
		var unexpected *smtp.UnexpectedReplyError
		if errors.As(err, &unexpected) {
			return unexpected.Reply.Code
		}
		t.Fatal(err)
	}
	return r.Code
}

// TestGreylistTempfailThenAccept is the ISSUE's integration scenario: a
// real Hybrid server tempfails a first-contact sender with 450, never
// costing a worker, then accepts the retry after the minimum retry
// window — exactly how a legitimate MTA behaves and a spam cannon does
// not.
func TestGreylistTempfailThenAccept(t *testing.T) {
	forEachArch(t, func(t *testing.T, arch Architecture) {
		const minRetry = 60 * time.Millisecond
		eng := policy.New(policy.WithGreylist(policy.GreyConfig{MinRetry: minRetry}))
		env := startServer(t, arch, WithPolicy(policy.NewServerPolicy(eng, nil)))

		// First attempt: greylisted with 450; the recipient is valid, so
		// only the greylist stands between the client and trust.
		c := dial(t, env)
		c.Helo("h")
		if err := c.Mail("sender@remote.test"); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if code := rcptCode(t, c, "a@valid.test"); code != 450 {
			t.Fatalf("first rcpt = %d, want 450", code)
		}
		c.Quit()
		waitStats(t, env.srv, func(s Stats) bool { return s.Greylisted == 1 })
		if arch == Hybrid && env.srv.Stats().Handoffs != 0 {
			t.Fatal("greylisted connection was delegated to a worker")
		}

		// Retry inside the window is still refused.
		if time.Since(start) < minRetry {
			c = dial(t, env)
			c.Helo("h")
			c.Mail("sender@remote.test")
			if code := rcptCode(t, c, "a@valid.test"); code != 450 {
				t.Fatalf("early retry = %d, want 450", code)
			}
			c.Quit()
		}

		// Retry after the window delivers.
		time.Sleep(minRetry - time.Since(start) + 10*time.Millisecond)
		c = dial(t, env)
		c.Helo("h")
		n, err := c.Send("sender@remote.test", []string{"a@valid.test"}, []byte("m"))
		if err != nil || n != 1 {
			t.Fatalf("retry send = %d, %v", n, err)
		}
		c.Quit()
		waitStats(t, env.srv, func(s Stats) bool { return s.MailsAccepted == 1 })
		if arch == Hybrid && env.srv.Stats().Handoffs != 1 {
			t.Fatalf("handoffs = %d, want 1", env.srv.Stats().Handoffs)
		}
	})
}

// TestPolicyConnectReject drives a DNSBL-listed client against both
// architectures: the connection draws 554 before the banner, and under
// Hybrid it never reaches the worker pool.
func TestPolicyConnectReject(t *testing.T) {
	forEachArch(t, func(t *testing.T, arch Architecture) {
		env := startServer(t, arch, dnsblOnly(listedAll{}))
		nc, err := net.Dial("tcp", env.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		reply, err := smtp.NewConn(nc).ReadReply()
		if err != nil {
			t.Fatal(err)
		}
		if reply.Code != 554 {
			t.Fatalf("listed client banner = %d, want 554", reply.Code)
		}
		waitStats(t, env.srv, func(s Stats) bool { return s.PolicyRejected == 1 })
		if arch == Hybrid && env.srv.Stats().Handoffs != 0 {
			t.Fatal("rejected connection was delegated")
		}
	})
}

// TestBlackholedDNSBLStillRefusesCondemnedSource: a DNSBL that never
// answers holds the verdict for the scorer's DNSBL timeout (2 s), not the
// idle timeout, and when it fails open reputation still decides — a
// condemned source draws 554, not the banner.
func TestBlackholedDNSBLStillRefusesCondemnedSource(t *testing.T) {
	forEachArch(t, func(t *testing.T, arch Architecture) {
		rep := policy.NewReputation(policy.ReputationConfig{})
		for i := 0; i < 10; i++ {
			rep.RecordBounce(time.Now(), addr.MustParseIPv4("127.0.0.1"))
		}
		blackhole := resolverFunc(func(ctx context.Context, _ addr.IPv4) (dnsbl.Result, error) {
			<-ctx.Done()
			return dnsbl.Result{}, ctx.Err()
		})
		pol := policy.NewServerPolicy(
			policy.New(policy.WithReputationStore(rep), policy.WithDNSBLReject(1)),
			policy.NewScorer(policy.WithLists(policy.List{Name: "bl.test", Resolver: blackhole})))
		env := startServer(t, arch, WithPolicy(pol), WithIdleTimeout(3*time.Second))

		nc, err := net.Dial("tcp", env.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		nc.SetReadDeadline(time.Now().Add(10 * time.Second))
		start := time.Now()
		reply, err := smtp.NewConn(nc).ReadReply()
		if err != nil {
			t.Fatal(err)
		}
		took := time.Since(start)
		if reply.Code != 554 || reply.Text != "poor sending history" {
			t.Fatalf("condemned client behind a blackholed DNSBL got %d %q after %v, want 554 poor sending history",
				reply.Code, reply.Text, took)
		}
		if took < 1500*time.Millisecond || took > 2900*time.Millisecond {
			t.Fatalf("verdict took %v, want the 2 s DNSBL timeout", took)
		}
	})
}

// TestPolicyRateLimitTempfail exhausts a one-connection burst: the
// second concurrent connection from the same IP draws 421.
func TestPolicyRateLimitTempfail(t *testing.T) {
	forEachArch(t, func(t *testing.T, arch Architecture) {
		eng := policy.New(policy.WithRate(policy.RateConfig{ConnPerSec: 0.001, ConnBurst: 1}))
		env := startServer(t, arch, WithPolicy(policy.NewServerPolicy(eng, nil)))

		// First connection is admitted and delivers.
		c := dial(t, env)
		c.Helo("h")
		if _, err := c.Send("s@x.test", []string{"a@valid.test"}, []byte("m")); err != nil {
			t.Fatal(err)
		}
		c.Quit()
		waitStats(t, env.srv, func(s Stats) bool { return s.MailsAccepted == 1 })

		// Second connection from the same IP exceeds the burst.
		nc, err := net.Dial("tcp", env.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		reply, err := smtp.NewConn(nc).ReadReply()
		if err != nil {
			t.Fatal(err)
		}
		if reply.Code != 421 {
			t.Fatalf("over-rate banner = %d, want 421", reply.Code)
		}
		waitStats(t, env.srv, func(s Stats) bool { return s.PolicyTempfail == 1 })
	})
}

// TestPolicyBounceFeedsReputation verifies the reputation loop
// end-to-end: enough bounce connections condemn the source IP, and a
// later connection is refused at connect time with no DNSBL evidence at
// all.
func TestPolicyBounceFeedsReputation(t *testing.T) {
	forEachArch(t, func(t *testing.T, arch Architecture) {
		// One bounce connection scores ~1.95 (with the /25 echo), three
		// ~5.85: past the tempfail threshold 4, short of the reject one 8.
		eng := policy.New(policy.WithReputation(policy.ReputationConfig{}))
		env := startServer(t, arch, WithPolicy(policy.NewServerPolicy(eng, nil)))

		// Three bounce connections: each records a rejected RCPT plus a
		// completed bounce. (Weights: 3 bounces ×1.0 + 3 rejects ×0.3.)
		for i := 0; i < 3; i++ {
			c := dial(t, env)
			c.Helo("h")
			c.Send("spam@bot.test", []string{"guess@wrong.test"}, []byte("x"))
			c.Quit()
		}
		waitStats(t, env.srv, func(s Stats) bool { return s.PreTrustClosed == 3 })
		waitStats(t, env.srv, func(s Stats) bool { return s.RcptRejected == 3 })

		// The next connection is refused from history alone.
		nc, err := net.Dial("tcp", env.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		reply, err := smtp.NewConn(nc).ReadReply()
		if err != nil {
			t.Fatal(err)
		}
		if reply.Code != 421 {
			t.Fatalf("condemned client banner = %d, want 421", reply.Code)
		}
		waitStats(t, env.srv, func(s Stats) bool { return s.PolicyTempfail == 1 })
	})
}

// TestPolicyBounceTransactionAllocatesNothing: with a policy attached, a
// bounce transaction — MAIL FROM, an unknown RCPT, RSET — costs the
// session no heap object. The unknown recipient draws 550 before the
// policy is asked, and MAIL has no policy check to hand a sender string.
func TestPolicyBounceTransactionAllocatesNothing(t *testing.T) {
	srv, err := New(func(string, []string, []byte) (string, error) { return "Q", nil },
		WithPolicy(policy.NewServerPolicy(policy.New(policy.WithGreylist(policy.GreyConfig{})), nil)),
		WithValidateRcptBytes(func(a []byte) bool { return bytes.HasSuffix(a, []byte("@example.test")) }))
	if err != nil {
		t.Fatal(err)
	}
	s := new(smtp.Session)
	s.Reset(srv.sessionConfig(netip.MustParseAddr("192.0.2.7"), 1))
	s.CommandBytes([]byte("HELO client.test"))
	steps := []struct {
		line []byte
		code int
	}{
		{[]byte("MAIL FROM:<s@remote.test>"), 250},
		{[]byte("RCPT TO:<nobody@elsewhere.test>"), 550},
		{[]byte("RSET"), 250},
	}
	bounce := func() {
		for _, st := range steps {
			if r, _ := s.CommandBytes(st.line); r.Code != st.code {
				t.Fatalf("%s = %d, want %d", st.line, r.Code, st.code)
			}
		}
	}
	bounce() // warm-up: the session's sender buffer
	if n := testing.AllocsPerRun(200, bounce); n != 0 {
		t.Errorf("a bounce transaction allocates %.1f objects, want 0", n)
	}
}
