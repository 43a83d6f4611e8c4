package smtp

import (
	"bytes"
	"strings"
	"testing"
)

// validTest accepts recipients at @valid.test.
func validTest(addr []byte) bool {
	return bytes.HasSuffix(bytes.ToLower(addr), []byte("@valid.test"))
}

func newTestSession() *Session {
	return NewSession(Config{Hostname: "mx.test", ValidateRcptBytes: validTest, MaxRcpts: 5})
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
	if s.HasValidRcpt() || s.Sender() != "" {
		t.Fatal("RSET did not clear state")
	}
	// MAIL allowed again after RSET.
	r, _ = command(s, "MAIL FROM:<c@d.test>")
	if r.Code != 250 {
		t.Fatalf("MAIL after RSET = %d", r.Code)
	}
}

func TestHeloResetsMail(t *testing.T) {
	s := newTestSession()
	command(s, "HELO one")
	command(s, "MAIL FROM:<a@b.test>")
	command(s, "HELO two")
	if s.Helo() != "two" || s.Sender() != "" {
		t.Fatal("repeated HELO should reset the transaction")
	}
}

func TestMaxRcptsEnforced(t *testing.T) {
	s := newTestSession()
	command(s, "HELO h")
	command(s, "MAIL FROM:<a@b.test>")
	for i := 0; i < 5; i++ {
		r, _ := command(s, "RCPT TO:<u"+string(rune('a'+i))+"@valid.test>")
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
	if len(s.Rcpts()) != 1 {
		t.Fatalf("rcpts = %v", s.Rcpts())
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
	if s.Sender() != "" {
		t.Fatalf("sender = %q", s.Sender())
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
	if s.cfg.Hostname == "" || s.cfg.MaxRcpts != 50 || s.cfg.MaxMessageBytes != MaxMessageBytes {
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
