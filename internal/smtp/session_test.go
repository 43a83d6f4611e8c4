package smtp

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// validTest accepts recipients at @valid.test.
// NewSession returns a session awaiting HELO, as the server's pooled
// sessions are after Reset.
func NewSession(cfg Config) *Session {
	s := &Session{}
	s.Reset(cfg)
	return s
}

func validTest(addr []byte) bool {
	return bytes.HasSuffix(bytes.ToLower(addr), []byte("@valid.test"))
}

func newTestSession() *Session {
	return NewSession(Config{Hostname: "mx.test", ValidateRcptBytes: validTest})
}

// command feeds s one command line given as a string.
func command(s *Session, line string) (Reply, Action) {
	return s.CommandBytes([]byte(line))
}

// drive feeds commands asserting expected codes; returns the session.
func drive(t *testing.T, s *Session, steps []struct {
	cmd  string
	code int
}) {
	t.Helper()
	for _, st := range steps {
		r, _ := command(s, st.cmd)
		if r.Code != st.code {
			t.Fatalf("Command(%q) = %d %s, want %d", st.cmd, r.Code, r.Text, st.code)
		}
	}
}

// finish completes the open transaction with DATA and returns its
// envelope.
func finish(t *testing.T, s *Session) Envelope {
	t.Helper()
	if r, action := command(s, "DATA"); action != ActionData {
		t.Fatalf("DATA = %d %s", r.Code, r.Text)
	}
	env, _ := s.FinishData([]byte("x\r\n"))
	return env
}

func TestHappyPathTransaction(t *testing.T) {
	s := newTestSession()
	if g := s.Greeting(); g.Code != 220 || !strings.Contains(g.Text, "mx.test") {
		t.Fatalf("greeting = %+v", g)
	}
	drive(t, s, []struct {
		cmd  string
		code int
	}{
		{"HELO client.test", 250},
		{"MAIL FROM:<sender@remote.test>", 250},
		{"RCPT TO:<alice@valid.test>", 250},
		{"RCPT TO:<bob@valid.test>", 250},
	})
	r, action := command(s, "DATA")
	if r.Code != 354 || action != ActionData {
		t.Fatalf("DATA = %d/%v", r.Code, action)
	}
	env, reply := s.FinishData([]byte("Subject: x\r\n\r\nbody"))
	if reply.Code != 250 {
		t.Fatalf("finish reply = %+v", reply)
	}
	if env.Sender != "sender@remote.test" || len(env.Rcpts) != 2 {
		t.Fatalf("envelope = %+v", env)
	}
	if s.MailsCompleted() != 1 {
		t.Fatal("mail count not incremented")
	}
	// Connection reusable for the next transaction.
	drive(t, s, []struct {
		cmd  string
		code int
	}{
		{"MAIL FROM:<other@remote.test>", 250},
		{"RCPT TO:<alice@valid.test>", 250},
	})
	r, action = command(s, "QUIT")
	if r.Code != 221 || action != ActionQuit {
		t.Fatalf("QUIT = %d/%v", r.Code, action)
	}
}

func TestBounceRcptGets550(t *testing.T) {
	s := newTestSession()
	command(s, "HELO h")
	command(s, "MAIL FROM:<spam@bot.test>")
	r, action := command(s, "RCPT TO:<guessed@valid.test.invalid>")
	if r.Code != 550 || action != ActionNone {
		t.Fatalf("bounce rcpt = %d/%v, want 550", r.Code, action)
	}
	if s.HasValidRcpt() {
		t.Fatal("rejected rcpt should not mark session trusted")
	}
	if s.RejectedRcpts() != 1 {
		t.Fatalf("rejected count = %d", s.RejectedRcpts())
	}
	// All recipients invalid: DATA refused.
	r, _ = command(s, "DATA")
	if r.Code != 554 {
		t.Fatalf("DATA after only bounces = %d, want 554", r.Code)
	}
	// A later valid RCPT rescues the transaction (mixed mail, §4.1).
	r, _ = command(s, "RCPT TO:<real@valid.test>")
	if r.Code != 250 || !s.HasValidRcpt() {
		t.Fatalf("valid rcpt after bounce = %d", r.Code)
	}
}

func TestSequenceEnforcement(t *testing.T) {
	s := newTestSession()
	drive(t, s, []struct {
		cmd  string
		code int
	}{
		{"MAIL FROM:<a@b.test>", 503}, // before HELO
		{"RCPT TO:<a@valid.test>", 503},
		{"DATA", 503},
		{"HELO h", 250},
		{"RCPT TO:<a@valid.test>", 503}, // before MAIL
		{"DATA", 503},
		{"MAIL FROM:<a@b.test>", 250},
		{"MAIL FROM:<a@b.test>", 503}, // nested MAIL
	})
}

func TestRsetClearsTransaction(t *testing.T) {
	s := newTestSession()
	command(s, "HELO h")
	command(s, "MAIL FROM:<a@b.test>")
	command(s, "RCPT TO:<a@valid.test>")
	r, _ := command(s, "RSET")
	if r.Code != 250 {
		t.Fatalf("RSET = %d", r.Code)
	}
	if s.HasValidRcpt() {
		t.Fatal("RSET did not clear the recipients")
	}
	// MAIL allowed again after RSET, and the envelope holds only the new
	// transaction.
	r, _ = command(s, "MAIL FROM:<c@d.test>")
	if r.Code != 250 {
		t.Fatalf("MAIL after RSET = %d", r.Code)
	}
	command(s, "RCPT TO:<b@valid.test>")
	if env := finish(t, s); env.Sender != "c@d.test" || len(env.Rcpts) != 1 || env.Rcpts[0] != "b@valid.test" {
		t.Fatalf("envelope after RSET = %+v", env)
	}
}

func TestHeloResetsMail(t *testing.T) {
	s := newTestSession()
	command(s, "HELO one")
	command(s, "MAIL FROM:<a@b.test>")
	command(s, "HELO two")
	if r, _ := command(s, "MAIL FROM:<c@d.test>"); r.Code != 250 {
		t.Fatalf("MAIL after a repeated HELO = %d, want 250", r.Code)
	}
	command(s, "RCPT TO:<b@valid.test>")
	if env := finish(t, s); env.Sender != "c@d.test" {
		t.Fatalf("sender = %q, want the one given after the second HELO", env.Sender)
	}
}

func TestMaxRcptsEnforced(t *testing.T) {
	s := newTestSession()
	command(s, "HELO h")
	command(s, "MAIL FROM:<a@b.test>")
	for i := 0; i < MaxRcpts; i++ {
		r, _ := command(s, fmt.Sprintf("RCPT TO:<u%d@valid.test>", i))
		if r.Code != 250 {
			t.Fatalf("rcpt %d = %d", i, r.Code)
		}
	}
	r, _ := command(s, "RCPT TO:<overflow@valid.test>")
	if r.Code != 452 {
		t.Fatalf("over-limit rcpt = %d, want 452", r.Code)
	}
}

func TestDuplicateRcptCollapses(t *testing.T) {
	s := newTestSession()
	command(s, "HELO h")
	command(s, "MAIL FROM:<a@b.test>")
	command(s, "RCPT TO:<u@valid.test>")
	r, _ := command(s, "RCPT TO:<U@VALID.TEST>")
	if r.Code != 250 {
		t.Fatalf("duplicate rcpt = %d", r.Code)
	}
	if env := finish(t, s); len(env.Rcpts) != 1 || env.Rcpts[0] != "u@valid.test" {
		t.Fatalf("rcpts = %v", env.Rcpts)
	}

	// The scan's worst case: MaxRcpts-1 recipients held (one more and
	// the cap answers before the scan), then a case-variant of the first
	// and of the last still collapse.
	command(s, "MAIL FROM:<a@b.test>")
	command(s, "RCPT TO:<u@valid.test>")
	for i := 1; i < MaxRcpts-1; i++ {
		command(s, fmt.Sprintf("RCPT TO:<u%d@valid.test>", i))
	}
	for _, dup := range []string{"U@Valid.Test", fmt.Sprintf("U%d@VALID.test", MaxRcpts-2)} {
		if r, _ := command(s, "RCPT TO:<"+dup+">"); r.Code != 250 {
			t.Fatalf("duplicate %s after %d rcpts = %d, want 250", dup, MaxRcpts-1, r.Code)
		}
	}
	if env := finish(t, s); len(env.Rcpts) != MaxRcpts-1 {
		t.Fatalf("rcpts = %d, want %d (duplicates collapse)", len(env.Rcpts), MaxRcpts-1)
	}
}

func TestNullSenderAccepted(t *testing.T) {
	// Bounce notifications use MAIL FROM:<>.
	s := newTestSession()
	command(s, "HELO h")
	r, _ := command(s, "MAIL FROM:<>")
	if r.Code != 250 {
		t.Fatalf("null sender = %d", r.Code)
	}
	command(s, "RCPT TO:<u@valid.test>")
	if env := finish(t, s); env.Sender != "" {
		t.Fatalf("sender = %q", env.Sender)
	}
}

func TestUnknownAndSyntaxReplies(t *testing.T) {
	s := newTestSession()
	r, _ := command(s, "XYZZY")
	if r.Code != 500 {
		t.Fatalf("unknown verb = %d", r.Code)
	}
	r, _ = command(s, "MAIL FROM:broken")
	if r.Code != 501 {
		t.Fatalf("syntax error = %d", r.Code)
	}
	r, _ = command(s, "NOOP")
	if r.Code != 250 {
		t.Fatalf("NOOP = %d", r.Code)
	}
	r, _ = command(s, "VRFY someone")
	if r.Code != 252 {
		t.Fatalf("VRFY = %d, want 252 (non-disclosing)", r.Code)
	}
}

func TestAbortData(t *testing.T) {
	s := newTestSession()
	command(s, "HELO h")
	command(s, "MAIL FROM:<a@b.test>")
	command(s, "RCPT TO:<u@valid.test>")
	command(s, "DATA")
	r := s.AbortData()
	if r.Code != 552 {
		t.Fatalf("abort = %d", r.Code)
	}
	if s.HasValidRcpt() {
		t.Fatal("abort should reset transaction")
	}
	// Session continues.
	r, _ = command(s, "MAIL FROM:<x@y.test>")
	if r.Code != 250 {
		t.Fatalf("MAIL after abort = %d", r.Code)
	}
}

func TestCommandAfterQuit(t *testing.T) {
	s := newTestSession()
	command(s, "QUIT")
	r, action := command(s, "NOOP")
	if r.Code != 503 || action != ActionQuit {
		t.Fatalf("post-QUIT = %d/%v", r.Code, action)
	}
}

func TestDefaultsApplied(t *testing.T) {
	s := NewSession(Config{})
	if s.cfg.Hostname == "" || s.cfg.MaxMessageBytes != MaxMessageBytes {
		t.Fatalf("defaults = %+v", s.cfg)
	}
	if s.MaxMessageBytes() != MaxMessageBytes {
		t.Fatal("MaxMessageBytes accessor wrong")
	}
	// nil validator accepts anything.
	command(s, "HELO h")
	command(s, "MAIL FROM:<a@b.c>")
	r, _ := command(s, "RCPT TO:<anyone@anywhere.example>")
	if r.Code != 250 {
		t.Fatalf("nil validator rcpt = %d", r.Code)
	}
}

// TestBdatSequence walks the BDAT rules: a chunk before any valid RCPT
// is discarded and fails the transaction, accepted chunks line up one
// after another in the body, DATA, MAIL and RCPT may not follow one, and
// a chunk past the size cap ends the session unread.
func TestBdatSequence(t *testing.T) {
	s := NewSession(Config{Hostname: "mx.test", ValidateRcptBytes: validTest, MaxMessageBytes: 100})
	type step struct {
		cmd           string
		code          int
		action        Action
		off, size     int
		last          bool
		state         State
		hasValidRcpts bool
	}
	for _, st := range []step{
		{"BDAT 5", 503, ActionDiscard, 0, 5, false, StateStart, false},
		{"HELO h", 250, ActionNone, 0, 5, false, StateGreeted, false},
		{"MAIL FROM:<a@b.test>", 250, ActionNone, 0, 5, false, StateMail, false},
		{"RCPT TO:<ghost@wrong.test>", 550, ActionNone, 0, 5, false, StateMail, false},
		{"BDAT 7 LAST", 554, ActionDiscard, 0, 7, true, StateGreeted, false},
		{"MAIL FROM:<a@b.test>", 250, ActionNone, 0, 7, true, StateMail, false},
		{"RCPT TO:<u@valid.test>", 250, ActionNone, 0, 7, true, StateRcpt, true},
		{"BDAT 40", 250, ActionChunk, 0, 40, false, StateChunk, true},
		{"DATA", 503, ActionNone, 0, 40, false, StateChunk, true},
		{"RCPT TO:<v@valid.test>", 503, ActionNone, 0, 40, false, StateChunk, true},
		{"MAIL FROM:<a@b.test>", 503, ActionNone, 0, 40, false, StateChunk, true},
		{"NOOP", 250, ActionNone, 0, 40, false, StateChunk, true},
		{"BDAT 60 LAST", 250, ActionChunk, 40, 60, true, StateChunk, true},
		{"RSET", 250, ActionNone, 40, 60, true, StateGreeted, false},
		{"MAIL FROM:<a@b.test>", 250, ActionNone, 40, 60, true, StateMail, false},
		{"RCPT TO:<u@valid.test>", 250, ActionNone, 40, 60, true, StateRcpt, true},
		{"BDAT 0 LAST", 250, ActionChunk, 0, 0, true, StateChunk, true},
		{"BDAT 101", 552, ActionQuit, 0, 0, true, StateQuit, true},
	} {
		r, action := command(s, st.cmd)
		off, size, last := s.Chunk()
		if r.Code != st.code || action != st.action || off != st.off || size != st.size || last != st.last ||
			s.state != st.state || s.HasValidRcpt() != st.hasValidRcpts {
			t.Fatalf("%q = %d %v, chunk %d+%d last %v, state %v, valid rcpt %v; want %+v",
				st.cmd, r.Code, action, off, size, last, s.state, s.HasValidRcpt(), st)
		}
	}
}
