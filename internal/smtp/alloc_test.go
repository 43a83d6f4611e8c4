package smtp

import (
	"bytes"
	"io"
	"testing"
	"time"

	"repro/internal/trace"
)

// loopReader serves the same script forever without allocating — the
// read side of the steady-state dialog harness.
type loopReader struct {
	script []byte
	off    int
}

func (l *loopReader) Read(p []byte) (int, error) {
	if l.off == len(l.script) {
		l.off = 0
	}
	n := copy(p, l.script[l.off:])
	l.off += n
	return n, nil
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

type loopRW struct {
	*loopReader
	discard
}

// dialogScript is the pre-trust command mix the alloc gates drive:
// greeting, sender, an accepted recipient, a case-variant duplicate, a
// rejected recipient (the §4.1 bounce probe), an unknown verb, a syntax
// error, and a reset — every reply class the hot path produces, with no
// DATA (envelope materialization is the one deliberately allocating
// step).
const dialogScript = "HELO client.example\r\n" +
	"MAIL FROM:<probe@spam.example>\r\n" +
	"RCPT TO:<good@valid.example>\r\n" +
	"RCPT TO:<GOOD@VALID.EXAMPLE>\r\n" +
	"RCPT TO:<ghost@trap.example>\r\n" +
	"FROBNICATE\r\n" +
	"MAIL FROM:oops\r\n" +
	"RSET\r\n"

const dialogScriptCmds = 8

var validSuffix = []byte("@valid.example")

func dialogConfig() Config {
	return Config{
		Hostname: "mx.bench.example",
		ValidateRcptBytes: func(addr []byte) bool {
			return len(addr) >= len(validSuffix) &&
				equalFoldBytes(addr[len(addr)-len(validSuffix):], validSuffix)
		},
	}
}

// runDialogScript pushes one full script iteration through the conn and
// session, batching replies into one flush like the server's dialog loop.
func runDialogScript(tb testing.TB, c *Conn, sess *Session) {
	for i := 0; i < dialogScriptCmds; i++ {
		line, err := c.ReadLine()
		if err != nil {
			tb.Fatalf("ReadLine: %v", err)
		}
		reply, action := sess.CommandBytes(line)
		if action != ActionNone {
			tb.Fatalf("script produced action %v on %q", action, line)
		}
		if err := c.WriteReplyLazy(reply); err != nil {
			tb.Fatalf("WriteReplyLazy: %v", err)
		}
	}
	if err := c.Flush(); err != nil {
		tb.Fatalf("Flush: %v", err)
	}
}

// TestDialogZeroAllocPerCommand is the regression gate on the dialog:
// after warmup, the full command dialog — read, parse, state machine,
// reply — costs zero heap allocations per command. This mirrors the
// 0-alloc tests in internal/metrics and internal/eventlog.
func TestDialogZeroAllocPerCommand(t *testing.T) {
	rw := loopRW{loopReader: &loopReader{script: []byte(dialogScript)}}
	c := NewConn(rw)
	sess := NewSession(dialogConfig())
	for i := 0; i < 3; i++ {
		runDialogScript(t, c, sess) // warmup: grow buffers, size the rcpt index
	}
	allocs := testing.AllocsPerRun(200, func() {
		runDialogScript(t, c, sess)
	})
	if allocs != 0 {
		t.Fatalf("steady-state dialog allocates %.1f times per %d commands, want 0",
			allocs, dialogScriptCmds)
	}
}

// lockStepReplies is a shard's answer to a 1-recipient transaction in
// the canonical texts: MAIL, RCPT, DATA, then the verdict on the body;
// chunkedReplies is its answer to the same transaction as one burst
// ending in BDAT.
const (
	lockStepReplies = "250 Ok\r\n250 Ok\r\n354 End data with <CR><LF>.<CR><LF>\r\n250 Ok: queued\r\n"
	chunkedReplies  = "250 Ok\r\n250 Ok\r\n250 Ok: queued\r\n"
)

// TestClientZeroAllocPerCommand is the client side of the dialog gate —
// the director's forwarding hop: after warmup, a 1-recipient transaction
// costs zero heap allocations, whether it goes out as one chunked burst
// (with or without an XTRACE context) or command by command.
func TestClientZeroAllocPerCommand(t *testing.T) {
	body := []byte("Subject: gate\r\n\r\n.dot line\r\nbody\r\n")
	rcpts := []string{"good@valid.example"}
	tc := trace.Context{Hi: 1, Lo: 2, Span: 3}
	for _, row := range []struct {
		name    string
		exts    map[string]bool
		replies string
		send    func(c *Client) error
	}{{
		name:    "pipelined Send",
		exts:    map[string]bool{"PIPELINING": true, "CHUNKING": true},
		replies: chunkedReplies,
		send: func(c *Client) error {
			n, err := c.Send("s@remote.example", rcpts, body)
			if err == nil && n != 1 {
				t.Fatalf("accepted = %d, want 1", n)
			}
			return err
		},
	}, {
		name:    "pipelined SendTraced over XTRACE",
		exts:    map[string]bool{"PIPELINING": true, "CHUNKING": true, "XTRACE": true},
		replies: chunkedReplies,
		send: func(c *Client) error {
			_, err := c.SendTraced("s@remote.example", rcpts, body, tc)
			return err
		},
	}, {
		name:    "lock-step Send without CHUNKING",
		exts:    map[string]bool{"PIPELINING": true},
		replies: lockStepReplies,
		send: func(c *Client) error {
			_, err := c.Send("s@remote.example", rcpts, body)
			return err
		},
	}, {
		name:    "lock-step Mail, Rcpt, Data",
		replies: lockStepReplies,
		send: func(c *Client) error {
			if err := c.Mail("s@remote.example"); err != nil {
				return err
			}
			if r, err := c.Rcpt(rcpts[0]); err != nil || r.Code != 250 {
				t.Fatalf("Rcpt = %v, %v", r, err)
			}
			return c.Data(body)
		},
	}} {
		t.Run(row.name, func(t *testing.T) {
			rw := loopRW{loopReader: &loopReader{script: []byte(row.replies)}}
			c := &Client{conn: NewConn(rw), exts: row.exts}
			run := func() {
				if err := row.send(c); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 3; i++ {
				run() // warmup: grow the line buffer
			}
			if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
				t.Fatalf("steady-state transaction allocates %.1f times, want 0", allocs)
			}
		})
	}
}

// TestSampledOutTraceZeroAlloc proves message tracing is free when a
// connection loses the sampling coin flip: the full per-mail call
// sequence — Mint at the connection edge, then the NewSpan/FinishAt pair
// every pipeline stage issues (forward, smtp, queue, delivery, store) —
// wrapped around the pre-trust dialog allocates nothing and records no
// span.
func TestSampledOutTraceZeroAlloc(t *testing.T) {
	rw := loopRW{loopReader: &loopReader{script: []byte(dialogScript)}}
	c := NewConn(rw)
	sess := NewSession(dialogConfig())
	// 1-in-2^30 sampling: the mint counter never reaches the modulus
	// here, so every dialog runs the sampled-out path.
	rec := trace.NewMessageRecorder("gate-node", 64, 1<<30)
	now := time.Now()
	stages := []string{
		trace.MStageForward, trace.MStageSMTP, trace.MStageQueue,
		trace.MStageDelivery, trace.MStageStore,
	}
	run := func() {
		tc := rec.Mint() // zero Context: the connection lost the coin flip
		runDialogScript(t, c, sess)
		// The downstream stage calls the pipeline issues per mail, all
		// no-ops on the zero context.
		for _, stage := range stages {
			sp := rec.NewSpan(tc)
			rec.FinishAt(sp, stage, now, now, "gate")
		}
	}
	for i := 0; i < 3; i++ {
		run() // warmup: grow buffers
	}
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("sampled-out traced dialog allocates %.1f times per %d commands, want 0",
			allocs, dialogScriptCmds)
	}
	if got := len(rec.Spans()); got != 0 {
		t.Fatalf("sampled-out run recorded %d spans, want 0", got)
	}
}

// TestDialogScriptSemantics pins what the alloc harness actually
// exercises, so a silent parser regression can't turn the 0-alloc loop
// into a stream of errors that trivially allocates nothing.
func TestDialogScriptSemantics(t *testing.T) {
	rw := loopRW{loopReader: &loopReader{script: []byte(dialogScript)}}
	c := NewConn(rw)
	sess := NewSession(dialogConfig())
	wantReplies := []int{250, 250, 250, 250, 550, 500, 501, 250}
	for i, want := range wantReplies {
		line, err := c.ReadLine()
		if err != nil {
			t.Fatal(err)
		}
		reply, _ := sess.CommandBytes(line)
		if reply.Code != want {
			t.Fatalf("command %d (%q) = %d, want %d", i, line, reply.Code, want)
		}
		switch i {
		case 3:
			if sess.nrcpts != 1 {
				t.Fatalf("after duplicate RCPT, %d rcpts, want 1", sess.nrcpts)
			}
		case 4:
			if sess.RejectedRcpts() != 1 {
				t.Fatalf("rejected = %d, want 1", sess.RejectedRcpts())
			}
		}
	}
}

func TestConnPoolRoundTrip(t *testing.T) {
	in := bytes.NewBufferString("HELO a\r\n")
	c := AcquireConn(struct {
		io.Reader
		io.Writer
	}{in, discard{}})
	line, err := c.ReadLine()
	if err != nil || string(line) != "HELO a" {
		t.Fatalf("pooled ReadLine = %q, %v", line, err)
	}
	c.data = make([]byte, 0, maxPooledData+1)
	ReleaseConn(c)
	c2 := AcquireConn(struct {
		io.Reader
		io.Writer
	}{bytes.NewBufferString("x\r\n"), discard{}})
	if cap(c2.data) > maxPooledData {
		t.Fatalf("oversized data buffer (%d) survived the pool", cap(c2.data))
	}
	ReleaseConn(c2)
}

func TestSessionPoolResets(t *testing.T) {
	s := AcquireSession(Config{Hostname: "one.example"})
	command(s, "HELO a")
	command(s, "MAIL FROM:<x@y.z>")
	command(s, "RCPT TO:<u@v.w>")
	finish(t, s)
	command(s, "MAIL FROM:<x@y.z>")
	ReleaseSession(s)
	s2 := AcquireSession(Config{Hostname: "two.example"})
	if s2.state != StateStart || s2.HasValidRcpt() || s2.senderSet || len(s2.sender) != 0 {
		t.Fatalf("pooled session not reset: state=%v sender=%q", s2.state, s2.sender)
	}
	for _, r := range s2.envRcpts {
		if r != "" {
			t.Fatalf("pooled session keeps the last envelope's recipient %q", r)
		}
	}
	if s2.cfg.Hostname != "two.example" {
		t.Fatalf("pooled session kept old config: %q", s2.cfg.Hostname)
	}
	ReleaseSession(s2)
}
