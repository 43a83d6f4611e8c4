package spool

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/fsim"
	"repro/internal/trace"
)

func env(id string, attempts int) Envelope {
	return Envelope{
		ID:       id,
		Sender:   "s@a.test",
		Rcpts:    []string{"r1@b.test", "r2@c.test"},
		Attempts: attempts,
	}
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	fs := fsim.NewMem(costmodel.FSModel{})
	s := New(fs, "queue")
	nb := time.Unix(0, 1234567890)
	e := env("Q1", 2)
	e.NotBefore = nb
	if err := appendMail(s, e, []byte("body bytes")); err != nil {
		t.Fatal(err)
	}
	mails, stats, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(mails) != 1 || stats.Torn != 0 || stats.Duplicates != 0 {
		t.Fatalf("recover = %d mails, stats %+v", len(mails), stats)
	}
	m := mails[0]
	if m.ID != "Q1" || m.Sender != "s@a.test" || m.Attempts != 2 || m.Lane != LaneActive {
		t.Fatalf("mail = %+v", m.Envelope)
	}
	if !m.NotBefore.Equal(nb) {
		t.Fatalf("notBefore = %v, want %v", m.NotBefore, nb)
	}
	if len(m.Rcpts) != 2 || m.Rcpts[0] != "r1@b.test" || m.Rcpts[1] != "r2@c.test" {
		t.Fatalf("rcpts = %v", m.Rcpts)
	}
	if string(m.Frame.Body()) != "body bytes" {
		t.Fatalf("body = %q", m.Frame.Body())
	}
}

func TestNullSenderAndEmptyBody(t *testing.T) {
	fs := fsim.NewMem(costmodel.FSModel{})
	s := New(fs, "queue")
	e := Envelope{ID: "Q1", Sender: "", Rcpts: []string{"r@b.test"}}
	if err := appendMail(s, e, nil); err != nil {
		t.Fatal(err)
	}
	mails, _, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(mails) != 1 || mails[0].Sender != "" || len(mails[0].Frame.Body()) != 0 {
		t.Fatalf("mails = %+v", mails)
	}
}

func TestMoveBetweenLanes(t *testing.T) {
	fs := fsim.NewMem(costmodel.FSModel{})
	s := New(fs, "queue")
	if err := appendMail(s, env("Q1", 0), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Move("Q1", LaneActive, LaneDeferred); err != nil {
		t.Fatal(err)
	}
	if s.LaneDepth(LaneActive) != 0 || s.LaneDepth(LaneDeferred) != 1 {
		t.Fatalf("depths: active %d deferred %d", s.LaneDepth(LaneActive), s.LaneDepth(LaneDeferred))
	}
	mails, _, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(mails) != 1 || mails[0].Lane != LaneDeferred {
		t.Fatalf("mails = %+v", mails)
	}
}

func TestRewriteUpdatesEnvelope(t *testing.T) {
	fs := fsim.NewMem(costmodel.FSModel{})
	s := New(fs, "queue")
	if err := appendMail(s, env("Q1", 0), []byte("x")); err != nil {
		t.Fatal(err)
	}
	e := env("Q1", 3)
	e.Rcpts = []string{"left@b.test"} // partial delivery shrank the list
	e.NotBefore = time.Unix(50, 0)
	if err := rewriteMail(s, e, []byte("x"), LaneActive, LaneDeferred); err != nil {
		t.Fatal(err)
	}
	mails, _, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(mails) != 1 {
		t.Fatalf("mails = %+v", mails)
	}
	m := mails[0]
	if m.Lane != LaneDeferred || m.Attempts != 3 || len(m.Rcpts) != 1 || m.Rcpts[0] != "left@b.test" {
		t.Fatalf("mail = %+v lane %s", m.Envelope, m.Lane)
	}
}

func TestAckRemoves(t *testing.T) {
	fs := fsim.NewMem(costmodel.FSModel{})
	s := New(fs, "queue")
	if err := appendMail(s, env("Q1", 0), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Ack("Q1", LaneActive); err != nil {
		t.Fatal(err)
	}
	if s.LaneDepth(LaneActive) != 0 {
		t.Fatal("ack left the file behind")
	}
	// Acking twice (or a mail that never spooled) is not an error.
	if err := s.Ack("Q1", LaneActive); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverDropsTornFiles(t *testing.T) {
	fs := fsim.NewMem(costmodel.FSModel{})
	s := New(fs, "queue")
	if err := appendMail(s, env("Q1", 0), []byte("ok")); err != nil {
		t.Fatal(err)
	}
	// A crash mid-write leaves a short file.
	f, _ := fs.Create("queue/active/Q2")
	f.Write([]byte{9, 0, 0}) //nolint:errcheck
	f.Close()
	// And an empty one (created, nothing durable).
	f2, _ := fs.Create("queue/deferred/Q3")
	f2.Close()
	mails, stats, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(mails) != 1 || mails[0].ID != "Q1" {
		t.Fatalf("mails = %+v", mails)
	}
	if stats.Torn != 2 {
		t.Fatalf("torn = %d, want 2", stats.Torn)
	}
	if fs.Exists("queue/active/Q2") || fs.Exists("queue/deferred/Q3") {
		t.Fatal("torn files not cleaned up")
	}
}

func TestRecoverResolvesCrashedMove(t *testing.T) {
	fs := fsim.NewMem(costmodel.FSModel{})
	s := New(fs, "queue")
	if err := appendMail(s, env("Q1", 1), []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash between link and remove: both names exist.
	if err := fs.Link("queue/active/Q1", "queue/deferred/Q1"); err != nil {
		t.Fatal(err)
	}
	mails, stats, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(mails) != 1 || mails[0].Lane != LaneDeferred {
		t.Fatalf("mails = %+v", mails)
	}
	if stats.Duplicates != 1 {
		t.Fatalf("duplicates = %d", stats.Duplicates)
	}
	if fs.Exists("queue/active/Q1") {
		t.Fatal("losing duplicate not removed")
	}
}

func TestRecoverPrecedenceHold(t *testing.T) {
	fs := fsim.NewMem(costmodel.FSModel{})
	s := New(fs, "queue")
	if err := appendMail(s, env("Q1", 0), nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.Link("queue/active/Q1", "queue/hold/Q1"); err != nil {
		t.Fatal(err)
	}
	mails, _, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(mails) != 1 || mails[0].Lane != LaneHold {
		t.Fatalf("mails = %+v", mails)
	}
}

// TestCrashPointEnumeration kills the filesystem at every mutating
// operation of an append → defer-rewrite → redispatch → ack lifecycle
// and asserts the recovery invariant at each point: a mail is either
// fully absent (crash before its append synced) or recovered exactly
// once with a consistent envelope; after the ack it is gone.
func TestCrashPointEnumeration(t *testing.T) {
	scenario := func(fs *fsim.Fault) error {
		s := New(fs, "queue")
		if err := appendMail(s, env("Q1", 0), []byte("payload")); err != nil {
			return err
		}
		e := env("Q1", 1)
		e.NotBefore = time.Unix(10, 0)
		if err := rewriteMail(s, e, []byte("payload"), LaneActive, LaneDeferred); err != nil {
			return err
		}
		if err := s.Move("Q1", LaneDeferred, LaneActive); err != nil {
			return err
		}
		return s.Ack("Q1", LaneActive)
	}
	// Dry run sizes the enumeration.
	dry := fsim.NewFault()
	if err := scenario(dry); err != nil {
		t.Fatal(err)
	}
	total := dry.Steps()
	if total < 6 {
		t.Fatalf("scenario too short to be interesting: %d steps", total)
	}
	for k := 0; k <= total; k++ {
		fs := fsim.NewFault()
		fs.CrashAfter(k)
		err := scenario(fs)
		if k < total && !errors.Is(err, fsim.ErrCrashed) {
			t.Fatalf("crash point %d: scenario err = %v, want ErrCrashed", k, err)
		}
		fs.Recover()
		s := New(fs, "queue")
		mails, stats, rerr := s.Recover()
		if rerr != nil {
			t.Fatalf("crash point %d: recover: %v", k, rerr)
		}
		if len(mails) > 1 {
			t.Fatalf("crash point %d: mail recovered twice: %+v", k, mails)
		}
		if k == total && len(mails) != 0 {
			t.Fatalf("acked mail survived full run: %+v", mails)
		}
		for _, m := range mails {
			if m.ID != "Q1" || string(m.Frame.Body()) != "payload" {
				t.Fatalf("crash point %d: inconsistent recovery %+v body %q", k, m.Envelope, m.Frame.Body())
			}
			if m.Attempts != 0 && m.Attempts != 1 {
				t.Fatalf("crash point %d: impossible attempts %d", k, m.Attempts)
			}
		}
		// A second recover returns the same view (idempotent cleanup).
		again, stats2, rerr := s.Recover()
		if rerr != nil || len(again) != len(mails) {
			t.Fatalf("crash point %d: second recover: %v (%d vs %d mails)", k, rerr, len(again), len(mails))
		}
		if stats2.Torn != 0 || stats2.Duplicates != 0 {
			t.Fatalf("crash point %d: second recover not clean: first %+v then %+v", k, stats, stats2)
		}
	}
}

func TestManyMailsRecoverAcrossLanes(t *testing.T) {
	fs := fsim.NewMem(costmodel.FSModel{})
	s := New(fs, "queue")
	for i := 0; i < 30; i++ {
		id := fmt.Sprintf("Q%03d", i)
		if err := appendMail(s, env(id, 0), []byte(id)); err != nil {
			t.Fatal(err)
		}
		switch i % 3 {
		case 1:
			if err := s.Move(id, LaneActive, LaneDeferred); err != nil {
				t.Fatal(err)
			}
		case 2:
			if err := s.Move(id, LaneActive, LaneHold); err != nil {
				t.Fatal(err)
			}
		}
	}
	mails, stats, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(mails) != 30 {
		t.Fatalf("recovered %d mails", len(mails))
	}
	if stats.Recovered[LaneActive] != 10 || stats.Recovered[LaneDeferred] != 10 || stats.Recovered[LaneHold] != 10 {
		t.Fatalf("stats = %+v", stats)
	}
	for _, m := range mails {
		if string(m.Frame.Body()) != m.ID {
			t.Fatalf("body mismatch for %s: %q", m.ID, m.Frame.Body())
		}
	}
}

func TestEnvelopeTraceRoundTrip(t *testing.T) {
	fs := fsim.NewMem(costmodel.FSModel{})
	s := New(fs, "queue")
	e := env("Q1", 1)
	e.Trace = trace.Context{Hi: 0xdeadbeefcafef00d, Lo: 0x0123456789abcdef, Span: 0xfeedface}
	if err := appendMail(s, e, []byte("traced body")); err != nil {
		t.Fatal(err)
	}
	mails, stats, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(mails) != 1 || stats.Torn != 0 {
		t.Fatalf("recover = %d mails, stats %+v", len(mails), stats)
	}
	if got := mails[0].Trace; got != e.Trace {
		t.Fatalf("trace = %+v, want %+v", got, e.Trace)
	}
}

func TestEnvelopeV1DecodesWithZeroTrace(t *testing.T) {
	// A v1 frame is today's encoding minus the 24-byte trace tail, with
	// the version byte rolled back — exactly what a spool written before
	// the tracing upgrade holds. It must decode cleanly, trace zeroed.
	e := env("Q7", 3)
	e.NotBefore = time.Unix(0, 987654321)
	e.Trace = trace.Context{Hi: 1, Lo: 2, Span: 3} // must NOT survive the downgrade
	buf, err := encodeEnvelope(e)
	if err != nil {
		t.Fatal(err)
	}
	v1 := append([]byte(nil), buf[:len(buf)-24]...)
	v1[0] = envVersionV1
	got, err := decodeEnvelope(v1)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != "Q7" || got.Attempts != 3 || !got.NotBefore.Equal(e.NotBefore) ||
		len(got.Rcpts) != 2 || got.Rcpts[1] != "r2@c.test" {
		t.Fatalf("v1 envelope = %+v", got)
	}
	if got.Trace.Valid() || got.Trace.Span != 0 {
		t.Fatalf("v1 envelope decoded with trace %+v, want zero", got.Trace)
	}

	// And the v2 tail round-trips through the raw codec too.
	got2, err := decodeEnvelope(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Trace != e.Trace {
		t.Fatalf("v2 trace = %+v, want %+v", got2.Trace, e.Trace)
	}

	// A v2 frame with a truncated trace tail is torn, not silently v1.
	trunc := append([]byte(nil), buf[:len(buf)-8]...)
	if _, err := decodeEnvelope(trunc); err == nil {
		t.Fatal("truncated v2 trace tail must fail decode")
	}
}

// A mail whose Append failed was refused (452) and will be retried by its
// sender under a new id; the copy whose fsync failed is fully framed and
// must not be left for Recover to resurrect beside the retry.
func TestFailedAppendLeavesNothingToRecover(t *testing.T) {
	fs := fsim.NewFault()
	fs.SetHook(func(op, _ string, _ int) error { // a disk that accepts writes, then fails every fsync
		if op == "Sync" {
			return errors.New("fsync: input/output error")
		}
		return nil
	})
	s := New(fs, "queue")
	if err := appendMail(s, env("Q1", 0), []byte("body")); err == nil {
		t.Fatal("Append succeeded on a filesystem whose fsync fails")
	}
	if n := s.LaneDepth(LaneActive); n != 0 {
		t.Fatalf("active lane holds %d files after a failed Append", n)
	}
	mails, stats, err := s.Recover()
	if err != nil || len(mails) != 0 || stats.Torn != 0 {
		t.Fatalf("Recover = %d mails, stats %+v, err %v; want nothing", len(mails), stats, err)
	}
}

// TestBeginEpochNeverRepeats: every process on one spool gets a higher
// epoch than any before it, across crashes at each step of writing the
// record, and lane scans never see the record.
func TestBeginEpochNeverRepeats(t *testing.T) {
	fs := fsim.NewFault()
	s := New(fs, "queue")
	next := uint64(0)
	for crashAt := 0; crashAt <= 4; crashAt++ {
		fs.CrashAfter(crashAt)
		got, err := s.BeginEpoch()
		fs.Recover()
		if err != nil {
			continue // died before the record was safe: the epoch was never used
		}
		if got < next {
			t.Fatalf("crash@%d: epoch %d handed out again, want >= %d", crashAt, got, next)
		}
		next = got + 1
	}
	if next < 3 {
		t.Fatalf("only %d epochs begun, the enumeration never got past the record", next)
	}
	if names := fs.List("queue/epoch/"); len(names) != 1 {
		t.Fatalf("epoch records = %v, want the latest alone", names)
	}
	if mails, _, err := s.Recover(); err != nil || len(mails) != 0 {
		t.Fatalf("Recover = %d mails, %v: the epoch record leaked into a lane scan", len(mails), err)
	}

	// A spool from before epochs existed holds epoch-0 ids and no record.
	legacy := New(fsim.NewMem(costmodel.FSModel{}), "queue")
	if err := appendMail(legacy, env("Q0000000000000001", 0), nil); err != nil {
		t.Fatal(err)
	}
	if got, err := legacy.BeginEpoch(); err != nil || got != 1 {
		t.Fatalf("legacy spool began epoch %d, %v; want 1", got, err)
	}
}
