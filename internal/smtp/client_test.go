package smtp

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// serveSession drives a full SMTP session over conn using the shared
// state machine — the same loop both server architectures run. It sends
// completed envelopes to envs.
func serveSession(conn net.Conn, cfg Config, envs chan<- Envelope) {
	defer conn.Close()
	c := NewConn(conn)
	s := NewSession(cfg)
	if err := c.WriteReply(s.Greeting()); err != nil {
		return
	}
	for {
		line, err := c.ReadLine()
		if err != nil {
			if err == ErrLineTooLong {
				if c.WriteReply(ReplyLineTooLong) == nil {
					continue
				}
			}
			return
		}
		reply, action := s.CommandBytes(line)
		switch action {
		case ActionData:
			if err := c.WriteReply(reply); err != nil {
				return
			}
			body, err := c.ReadData(s.MaxMessageBytes())
			if err != nil {
				if errors.Is(err, ErrMessageTooBig) {
					if c.WriteReply(s.AbortData()) == nil {
						continue
					}
				}
				return
			}
			env, done := s.FinishData(body)
			if envs != nil {
				// The channel keeps the envelope past this transaction:
				// copy what the session and the Conn own.
				env.Rcpts = append([]string(nil), env.Rcpts...)
				env.Data = append([]byte(nil), env.Data...)
				envs <- env
			}
			if err := c.WriteReply(done); err != nil {
				return
			}
		case ActionQuit:
			c.WriteReply(reply)
			return
		default:
			if err := c.WriteReply(reply); err != nil {
				return
			}
		}
	}
}

// startTestServer returns a client connected to an in-process session.
func startTestServer(t *testing.T, cfg Config) (*Client, <-chan Envelope, *sync.WaitGroup) {
	t.Helper()
	serverConn, clientConn := net.Pipe()
	envs := make(chan Envelope, 16)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		serveSession(serverConn, cfg, envs)
	}()
	client, err := NewClient(clientConn)
	if err != nil {
		t.Fatal(err)
	}
	return client, envs, &wg
}

func validCfg() Config {
	return Config{Hostname: "mx.test", ValidateRcptBytes: validTest}
}

func TestClientFullTransaction(t *testing.T) {
	client, envs, wg := startTestServer(t, validCfg())
	if got := client.banner.Code; got != 220 {
		t.Fatalf("banner = %d", got)
	}
	if err := client.Helo("load.test"); err != nil {
		t.Fatal(err)
	}
	n, err := client.Send("sender@remote.test",
		[]string{"a@valid.test", "b@valid.test"},
		[]byte("Subject: t\r\n\r\n.dot line\r\nbody\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("accepted = %d, want 2", n)
	}
	env := <-envs
	if env.Sender != "sender@remote.test" || len(env.Rcpts) != 2 {
		t.Fatalf("envelope = %+v", env)
	}
	if string(env.Data) != "Subject: t\r\n\r\n.dot line\r\nbody\r\n" {
		t.Fatalf("data = %q", env.Data)
	}
	if err := client.Quit(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

func TestClientAllRecipientsBounce(t *testing.T) {
	client, envs, wg := startTestServer(t, validCfg())
	client.Helo("h")
	n, err := client.Send("s@r.test", []string{"x@nowhere.test", "y@nowhere.test"}, []byte("body"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("accepted = %d, want 0", n)
	}
	select {
	case env := <-envs:
		t.Fatalf("bounce-only transaction delivered: %+v", env)
	default:
	}
	client.Quit()
	wg.Wait()
}

func TestClientPartialBounce(t *testing.T) {
	client, envs, wg := startTestServer(t, validCfg())
	client.Helo("h")
	n, err := client.Send("s@r.test",
		[]string{"ghost@nowhere.test", "real@valid.test"}, []byte("body"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("accepted = %d, want 1", n)
	}
	env := <-envs
	if len(env.Rcpts) != 1 || env.Rcpts[0] != "real@valid.test" {
		t.Fatalf("envelope rcpts = %v", env.Rcpts)
	}
	client.Quit()
	wg.Wait()
}

func TestClientAbortMidSession(t *testing.T) {
	// §4.1's "unfinished SMTP transaction": connect, HELO, hang up.
	client, envs, wg := startTestServer(t, validCfg())
	client.Helo("h")
	if err := client.Abort(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	select {
	case env := <-envs:
		t.Fatalf("aborted session delivered: %+v", env)
	default:
	}
}

func TestClientMultipleMailsOneConnection(t *testing.T) {
	client, envs, wg := startTestServer(t, validCfg())
	client.Helo("h")
	for i := 0; i < 3; i++ {
		if _, err := client.Send("s@r.test", []string{"a@valid.test"}, []byte("m")); err != nil {
			t.Fatal(err)
		}
	}
	client.Quit()
	wg.Wait()
	close := 0
	for len(envs) > 0 {
		<-envs
		close++
	}
	if close != 3 {
		t.Fatalf("delivered = %d, want 3", close)
	}
}

func TestClientOversizeMessage(t *testing.T) {
	cfg := validCfg()
	cfg.MaxMessageBytes = 64
	client, _, wg := startTestServer(t, cfg)
	client.Helo("h")
	client.Mail("s@r.test")
	client.Rcpt("a@valid.test")
	err := client.Data(make([]byte, 1000))
	var unexpected *UnexpectedReplyError
	if !errors.As(err, &unexpected) || unexpected.Reply.Code != 552 {
		t.Fatalf("oversize err = %v, want 552", err)
	}
	// Connection still usable afterwards.
	if err := client.Helo("again"); err != nil {
		t.Fatal(err)
	}
	client.Quit()
	wg.Wait()
}

func TestClientRejectsBadBanner(t *testing.T) {
	serverConn, clientConn := net.Pipe()
	go func() {
		NewConn(serverConn).WriteReply(Reply{554, "go away"})
		serverConn.Close()
	}()
	if _, err := NewClient(clientConn); err == nil {
		t.Fatal("554 banner accepted")
	}
}

func TestClientCommandTimeout(t *testing.T) {
	// A server that greets and then goes silent: without a per-command
	// deadline the HELO would block forever.
	serverConn, clientConn := net.Pipe()
	defer serverConn.Close()
	go func() {
		NewConn(serverConn).WriteReply(Reply{220, "slow.example ESMTP"})
		// Drain the HELO line but never answer.
		buf := make([]byte, 256)
		serverConn.Read(buf) //nolint:errcheck
	}()
	c, err := NewClient(clientConn, WithCommandTimeout(30*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = c.Helo("me")
	if err == nil {
		t.Fatal("HELO against a stalled server succeeded")
	}
	var te *CommandTimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v (%T), want *CommandTimeoutError", err, err)
	}
	if !te.Timeout() || te.Op != "HELO" {
		t.Fatalf("timeout error = %+v", te)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("timeout took %v, deadline not applied", took)
	}
}

// scriptedPeer greets over conn and answers each command line: EHLO
// advertises PIPELINING and CHUNKING, DATA draws 354, anything else 250.
// The first line starting with stopAt draws stop instead (its usual
// answer when stop is zero) and ends the script: nothing more is read.
func scriptedPeer(conn net.Conn, stopAt string, stop Reply) {
	c := NewConn(conn)
	if c.WriteReply(Reply{220, "peer.test ESMTP"}) != nil {
		return
	}
	for {
		line, err := c.ReadLine()
		if err != nil {
			return
		}
		r := Reply{250, "Ok"}
		switch {
		case bytes.HasPrefix(line, []byte("EHLO")):
			r = Reply{250, "peer.test\nPIPELINING\nCHUNKING"}
		case string(line) == "DATA":
			r = Reply{354, "go ahead"}
		}
		at := bytes.HasPrefix(line, []byte(stopAt))
		if at && stop.Code != 0 {
			r = stop
		}
		if c.WriteReply(r) != nil || at {
			return
		}
	}
}

// TestClientWriteTimeout: a peer that stops reading mid-transaction
// must not pin a client whose data overflows its write buffer — the
// body after a 354, or a chunked burst whose body or recipients overflow
// it. Each surfaces as a *CommandTimeoutError naming the first reply
// that never came.
func TestClientWriteTimeout(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcd\r\n"), 1024)
	many := make([]string, 500)
	for i := range many {
		many[i] = fmt.Sprintf("user%04d@valid.test", i)
	}
	for _, row := range []struct {
		name, stallAt, op string
		send              func(*Client) error
	}{{
		name: "lock-step body", stallAt: "DATA", op: "DATA body",
		send: func(c *Client) error {
			if err := c.Helo("me"); err != nil {
				return err
			}
			if err := c.Mail("s@remote.test"); err != nil {
				return err
			}
			if _, err := c.Rcpt("a@valid.test"); err != nil {
				return err
			}
			return c.Data(body)
		},
	}, {
		name: "pipelined body", stallAt: "EHLO", op: "MAIL",
		send: func(c *Client) error {
			if err := c.Ehlo("me"); err != nil {
				return err
			}
			_, err := c.Send("s@remote.test", []string{"a@valid.test"}, body)
			return err
		},
	}, {
		name: "pipelined burst", stallAt: "EHLO", op: "MAIL",
		send: func(c *Client) error {
			if err := c.Ehlo("me"); err != nil {
				return err
			}
			_, err := c.Send("s@remote.test", many, []byte("x"))
			return err
		},
	}} {
		t.Run(row.name, func(t *testing.T) {
			serverConn, clientConn := net.Pipe()
			defer serverConn.Close()
			defer clientConn.Close()
			go scriptedPeer(serverConn, row.stallAt, Reply{})
			c, err := NewClient(clientConn, WithCommandTimeout(50*time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			err = row.send(c)
			var te *CommandTimeoutError
			if !errors.As(err, &te) || te.Op != row.op {
				t.Fatalf("err = %v (%T), want a *CommandTimeoutError for %s", err, err, row.op)
			}
			if took := time.Since(start); took > 2*time.Second {
				t.Fatalf("timeout took %v, deadline not applied to the write", took)
			}
		})
	}
}

// TestClientBurstKeepsFirstRefusal: when a peer refuses MAIL in a
// pipelined burst and hangs up, the refusal — not the EOF on the next
// reply — is the error, naming MAIL.
func TestClientBurstKeepsFirstRefusal(t *testing.T) {
	serverConn, clientConn := net.Pipe()
	go func() {
		scriptedPeer(serverConn, "MAIL", Reply{421, "closing"})
		serverConn.Close()
	}()
	c, err := NewClient(clientConn)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Abort() //nolint:errcheck
	if err := c.Ehlo("me"); err != nil {
		t.Fatal(err)
	}
	_, err = c.Send("s@remote.test", []string{"a@valid.test"}, []byte("body"))
	var unexpected *UnexpectedReplyError
	if !errors.As(err, &unexpected) || unexpected.Op != "MAIL" || unexpected.Reply.Code != 421 {
		t.Fatalf("err = %v, want MAIL's 421", err)
	}
}

// TestRcptVerdict pins the one rule Rcpt and Send share for a RCPT
// reply: a 2xx accepts, a 4xx defers and a 5xx refuses without an error,
// and any other reply is the error.
func TestRcptVerdict(t *testing.T) {
	for _, row := range []struct {
		code     int
		accepted bool
		err      bool
	}{{250, true, false}, {251, true, false}, {550, false, false}, {354, false, true}, {452, false, false}, {553, false, false}} {
		accepted, err := rcptVerdict(Reply{row.code, "verdict"})
		if accepted != row.accepted || (err != nil) != row.err {
			t.Errorf("rcptVerdict(%d) = %v, %v; want accepted %v, error %v", row.code, accepted, err, row.accepted, row.err)
		}
	}
}

func TestClientBannerTimeout(t *testing.T) {
	serverConn, clientConn := net.Pipe()
	defer serverConn.Close()
	// Server never sends the banner.
	_, err := NewClient(clientConn, WithCommandTimeout(30*time.Millisecond))
	var te *CommandTimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *CommandTimeoutError", err)
	}
}

func TestClientNoTimeoutStreamsStillWork(t *testing.T) {
	// Streams without SetDeadline (not net.Conn) must keep working with
	// the option set: the deadline is simply not armed.
	client, _, wg := startTestServer(t, validCfg())
	if err := client.Helo("h"); err != nil {
		t.Fatal(err)
	}
	client.Quit()
	wg.Wait()
}
