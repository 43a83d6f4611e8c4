package director

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/smtp"
	"repro/internal/smtpserver"
)

// countingConn counts a client's Write calls: one per flush of its write
// buffer, so the count is how many times it sent before a reply.
type countingConn struct {
	net.Conn
	writes int
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes++
	return c.Conn.Write(p)
}

// dialCounted opens a client to addr that counts its writes.
func dialCounted(t *testing.T, addr string) (*smtp.Client, *countingConn) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: nc}
	c, err := smtp.NewClient(cc, smtp.WithCommandTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	return c, cc
}

// startHopShard boots a hybrid shard taking @valid.test recipients with
// one worker, so it serves trusted connections strictly one at a time.
func startHopShard(t *testing.T) (string, *sink) {
	t.Helper()
	addr, sk, _ := startShardServer(t,
		smtpserver.WithArchitecture(smtpserver.Hybrid),
		smtpserver.WithMaxWorkers(1),
		smtpserver.WithValidateRcpt(validTest),
	)
	return addr, sk
}

// TestSendWireShape pins what the director hop puts on the wire against
// a real shard: the whole envelope in one write when the shard
// advertises PIPELINING, and the refusal rules of the burst.
func TestSendWireShape(t *testing.T) {
	body := []byte("Subject: hop\r\n\r\nbody\r\n")

	t.Run("a 1-rcpt mail is 2 writes after EHLO, 4 after HELO", func(t *testing.T) {
		addr, sk := startHopShard(t)
		for _, row := range []struct {
			greet  func(*smtp.Client, string) error
			writes int
		}{{(*smtp.Client).Hello, 2}, {(*smtp.Client).Helo, 4}} {
			c, cc := dialCounted(t, addr)
			if err := row.greet(c, "director.test"); err != nil {
				t.Fatal(err)
			}
			cc.writes = 0
			if n, err := c.Send("s@remote.test", []string{"a@valid.test"}, body); err != nil || n != 1 {
				t.Fatalf("Send = %d, %v", n, err)
			}
			if cc.writes != row.writes {
				t.Errorf("Send wrote %d times, want %d", cc.writes, row.writes)
			}
			if err := c.Quit(); err != nil {
				t.Fatal(err)
			}
		}
		if got := sk.count("a@valid.test"); got != 2 {
			t.Fatalf("shard enqueued %d mails, want 2", got)
		}
	})

	t.Run("a RCPT 4xx in the burst sends no body and enqueues nothing", func(t *testing.T) {
		addr, sk := startHopShard(t)
		c, cc := dialCounted(t, addr)
		if err := c.Hello("director.test"); err != nil {
			t.Fatal(err)
		}
		// A session takes 50 recipients (postfix's default); the 51st
		// draws 452, after the first has earned DATA its 354.
		rcpts := make([]string, 51)
		for i := range rcpts {
			rcpts[i] = fmt.Sprintf("u%d@valid.test", i)
		}
		cc.writes = 0
		_, err := c.Send("s@remote.test", rcpts, body)
		var unexpected *smtp.UnexpectedReplyError
		if !errors.As(err, &unexpected) || unexpected.Reply.Code != 452 || unexpected.Op != "RCPT" {
			t.Fatalf("Send err = %v, want the RCPT's 452", err)
		}
		if cc.writes != 1 {
			t.Fatalf("Send wrote %d times, want 1: the burst and no body", cc.writes)
		}
		// The shard's one worker serves the next mail only once it has
		// finished the abandoned transaction.
		if got := sendMail(t, addr, "s@remote.test", []string{"a@valid.test"}); got != 1 {
			t.Fatalf("next mail accepted %d rcpts, want 1", got)
		}
		if sk.total() != 1 || sk.count("u0@valid.test") != 0 {
			t.Fatalf("shard enqueued %d mails (u0: %d), want only the next one", sk.total(), sk.count("u0@valid.test"))
		}
	})

	t.Run("a burst of 550s accepts nothing and the connection stays usable", func(t *testing.T) {
		addr, sk := startHopShard(t)
		c, _ := dialCounted(t, addr)
		defer c.Quit() //nolint:errcheck
		if err := c.Hello("director.test"); err != nil {
			t.Fatal(err)
		}
		if n, err := c.Send("s@remote.test", []string{"x@wrong.test", "y@wrong.test"}, body); err != nil || n != 0 {
			t.Fatalf("all-550 Send = %d, %v; want 0, nil", n, err)
		}
		if n, err := c.Send("s@remote.test", []string{"a@valid.test"}, body); err != nil || n != 1 {
			t.Fatalf("next Send on the same client = %d, %v; want 1, nil", n, err)
		}
		if sk.total() != 1 {
			t.Fatalf("shard enqueued %d mails, want 1", sk.total())
		}
	})
}
