package spool

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/fsim"
	"repro/internal/trace"
)

// appendMail and rewriteMail are Append and Rewrite in the (envelope,
// body) form most tests are written in.
func appendMail(s *Store, e Envelope, body []byte) error {
	fr, err := NewFrame(e, body)
	if err != nil {
		return err
	}
	return s.Append(fr)
}

func rewriteMail(s *Store, e Envelope, body []byte, from, to Lane) error {
	fr, err := NewFrame(e, body)
	if err != nil {
		return err
	}
	return s.Rewrite(fr, from, to)
}

// encodeEnvelope is the reference envelope encoder: the one the spool
// shipped with before frames, allocating its own buffer. The tests compare
// the frame's in-place encoding against it.
func encodeEnvelope(env Envelope) ([]byte, error) {
	if len(env.ID) > 0xffff || len(env.Sender) > 0xffff {
		return nil, fmt.Errorf("spool: envelope field too long")
	}
	var nb int64
	if !env.NotBefore.IsZero() {
		nb = env.NotBefore.UnixNano()
	}
	buf := make([]byte, 0, 56+len(env.ID)+len(env.Sender))
	buf = append(buf, envVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(env.Attempts))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(nb))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(env.ID)))
	buf = append(buf, env.ID...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(env.Sender)))
	buf = append(buf, env.Sender...)
	if len(env.Rcpts) > 0xffff {
		return nil, fmt.Errorf("spool: too many recipients (%d)", len(env.Rcpts))
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(env.Rcpts)))
	for _, r := range env.Rcpts {
		if len(r) > 0xffff {
			return nil, fmt.Errorf("spool: recipient too long")
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r)))
		buf = append(buf, r...)
	}
	buf = binary.LittleEndian.AppendUint64(buf, env.Trace.Hi)
	buf = binary.LittleEndian.AppendUint64(buf, env.Trace.Lo)
	buf = binary.LittleEndian.AppendUint64(buf, env.Trace.Span)
	return buf, nil
}

// referenceImage is the spool file of (env, body) as the spool wrote it
// before frames: u32 | envelope | u32 | body, built in a fresh buffer.
func referenceImage(t *testing.T, env Envelope, body []byte) []byte {
	t.Helper()
	payload, err := encodeEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(body)))
	return append(buf, body...)
}

func fileBytes(t *testing.T, fs fsim.FS, name string) []byte {
	t.Helper()
	f, err := fs.OpenRead(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, size)
	if size > 0 {
		if _, err := f.ReadAt(data, 0); err != nil {
			t.Fatal(err)
		}
	}
	return data
}

func recoverOne(t *testing.T, s *Store) Mail {
	t.Helper()
	mails, _, err := s.Recover()
	if err != nil || len(mails) != 1 {
		t.Fatalf("recover = %d mails, %v", len(mails), err)
	}
	return mails[0]
}

func sameEnvelope(a, b Envelope) bool {
	if len(a.Rcpts) == 0 && len(b.Rcpts) == 0 {
		a.Rcpts, b.Rcpts = nil, nil
	}
	return a.NotBefore.Equal(b.NotBefore) && reflect.DeepEqual(
		[]any{a.ID, a.Sender, a.Rcpts, a.Attempts, a.Trace},
		[]any{b.ID, b.Sender, b.Rcpts, b.Attempts, b.Trace})
}

// TestFrameImageIsByteIdentical: what a frame puts on disk is, byte for
// byte, the file the spool wrote when it built envelope and image in two
// fresh buffers — on Append, and again after the envelope is re-encoded in
// place for a deferral — and both survive Recover.
func TestFrameImageIsByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 200; i++ {
		e := Envelope{ID: fmt.Sprintf("Q%016X", rng.Uint64()), Attempts: rng.Intn(5)}
		if rng.Intn(4) > 0 {
			e.Sender = fmt.Sprintf("s%d@from.test", rng.Intn(1e6))
		}
		for n := rng.Intn(101); n > 0; n-- {
			e.Rcpts = append(e.Rcpts, fmt.Sprintf("user%0*d@dept.test", 1+rng.Intn(30), rng.Intn(10)))
		}
		if rng.Intn(2) == 0 {
			e.Trace = trace.Context{Hi: rng.Uint64(), Lo: rng.Uint64(), Span: rng.Uint64()}
		}
		body := make([]byte, rng.Intn(6000))
		rng.Read(body)

		fs := fsim.NewMem(costmodel.FSModel{})
		s := New(fs, "queue")
		fr, err := NewFrame(e, body)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Append(fr); err != nil {
			t.Fatal(err)
		}
		if got, want := fileBytes(t, fs, s.path(LaneActive, e.ID)), referenceImage(t, e, body); !bytes.Equal(got, want) {
			t.Fatalf("mail %d: appended image differs from the reference encoding (%d vs %d bytes)", i, len(got), len(want))
		}
		m := recoverOne(t, s)
		if !sameEnvelope(m.Envelope, e) || !bytes.Equal(m.Frame.Body(), body) || m.Lane != LaneActive {
			t.Fatalf("mail %d: recovered %+v, want %+v", i, m.Envelope, e)
		}

		// A deferral: one more attempt, a retry time, fewer recipients.
		e.Attempts++
		e.NotBefore = time.Unix(1700000000+int64(i), int64(rng.Intn(1e9)))
		e.Rcpts = e.Rcpts[:rng.Intn(len(e.Rcpts)+1)]
		if err := fr.SetEnvelope(e); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fr.Body(), body) {
			t.Fatalf("mail %d: re-encoding the envelope changed the body", i)
		}
		if err := s.Rewrite(fr, LaneActive, LaneDeferred); err != nil {
			t.Fatal(err)
		}
		if got, want := fileBytes(t, fs, s.path(LaneDeferred, e.ID)), referenceImage(t, e, body); !bytes.Equal(got, want) {
			t.Fatalf("mail %d: rewritten image differs from the reference encoding", i)
		}
		// The released frame, its image no longer at the front of its
		// buffer, is what the pool hands Recover next: a recovered frame is
		// the file as it stands all the same.
		fr.Release()
		m = recoverOne(t, s)
		if !sameEnvelope(m.Envelope, e) || !bytes.Equal(m.Frame.Body(), body) || m.Lane != LaneDeferred {
			t.Fatalf("mail %d: after rewrite recovered %+v in %s, want %+v", i, m.Envelope, m.Lane, e)
		}
		if err := s.Rewrite(m.Frame, LaneDeferred, LaneHold); err != nil {
			t.Fatal(err)
		}
		if got, want := fileBytes(t, fs, s.path(LaneHold, e.ID)), referenceImage(t, e, body); !bytes.Equal(got, want) {
			t.Fatalf("mail %d: recovered frame rewrites as a different image", i)
		}
		m.Frame.Release()
	}
}

// TestRecoveredV1FrameHasRoomForTheTrace: a mail recovered from a spool
// written before envelopes carried a trace is 24 bytes short of what a
// rewrite encodes; Recover leaves that much slack, the body does not move,
// and the image is still the reference. An envelope that outgrows its
// frame — no deliverer does that — is refused, not written over the body.
func TestRecoveredV1FrameHasRoomForTheTrace(t *testing.T) {
	fs := fsim.NewMem(costmodel.FSModel{})
	s := New(fs, "queue")
	e := env("Q1", 1)
	payload, err := encodeEnvelope(e)
	if err != nil {
		t.Fatal(err)
	}
	payload = payload[:len(payload)-24]
	payload[0] = envVersionV1
	img := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	img = append(img, payload...)
	img = binary.LittleEndian.AppendUint32(img, 4)
	img = append(img, "body"...)
	f, err := fs.Create(s.path(LaneActive, "Q1"))
	if err != nil {
		t.Fatal(err)
	}
	f.Write(img)
	f.Close()

	m := recoverOne(t, s)
	body := m.Frame.Body()
	e.Attempts, e.NotBefore = 2, time.Unix(99, 0)
	if err := m.Frame.SetEnvelope(e); err != nil {
		t.Fatal(err)
	}
	if err := s.Rewrite(m.Frame, LaneActive, LaneDeferred); err != nil {
		t.Fatal(err)
	}
	if got, want := fileBytes(t, fs, s.path(LaneDeferred, "Q1")), referenceImage(t, e, []byte("body")); !bytes.Equal(got, want) {
		t.Fatalf("rewritten v1 mail = %x, want %x", got, want)
	}
	if string(body) != "body" || &body[0] != &m.Frame.Body()[0] {
		t.Fatalf("body view moved or changed: %q", body)
	}
	e.Rcpts = append(e.Rcpts, "one-more@b.test")
	if err := m.Frame.SetEnvelope(e); err == nil {
		t.Fatal("an envelope larger than the frame's slack was accepted")
	}
	if string(m.Frame.Body()) != "body" {
		t.Fatalf("refused envelope damaged the body: %q", m.Frame.Body())
	}
}

// TestReleasedFrameIsPoisoned: in a test binary a released frame's bytes
// are overwritten, so a view kept past Release reads poison, never the
// next mail that reuses the buffer.
func TestReleasedFrameIsPoisoned(t *testing.T) {
	body := bytes.Repeat([]byte("ham "), 1024)
	fr, err := NewFrame(env("Q1", 0), body)
	if err != nil {
		t.Fatal(err)
	}
	kept := fr.Body()
	if !bytes.Equal(kept, body) {
		t.Fatal("body view differs from the body before release")
	}
	fr.Release()
	if want := bytes.Repeat([]byte{poisonByte}, len(body)); !bytes.Equal(kept, want) {
		t.Fatalf("view kept past Release reads %q…, want poison", kept[:8])
	}

	// A buffer above the pool bound is dropped, not pooled: the next frame
	// does not get it back.
	big, err := NewFrame(env("Q2", 0), make([]byte, maxPooledFrame+1))
	if err != nil {
		t.Fatal(err)
	}
	big.Release()
	next, err := NewFrame(env("Q3", 0), []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if cap(next.buf) > maxPooledFrame {
		t.Fatalf("a %d-byte buffer came back from the pool", cap(next.buf))
	}
}
