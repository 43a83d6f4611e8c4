package smtp

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

type rwBuf struct {
	in  *bytes.Buffer
	out *bytes.Buffer
}

func (b *rwBuf) Read(p []byte) (int, error)  { return b.in.Read(p) }
func (b *rwBuf) Write(p []byte) (int, error) { return b.out.Write(p) }

func newRW(input string) (*Conn, *rwBuf) {
	b := &rwBuf{in: bytes.NewBufferString(input), out: &bytes.Buffer{}}
	return NewConn(b), b
}

func TestReadLineVariants(t *testing.T) {
	c, _ := newRW("HELO x\r\nMAIL\nQUIT")
	for _, want := range []string{"HELO x", "MAIL", "QUIT"} {
		got, err := c.ReadLine()
		if err != nil || string(got) != want {
			t.Fatalf("ReadLine = %q, %v; want %q", got, err, want)
		}
	}
}

func TestReadLineTooLong(t *testing.T) {
	c, _ := newRW(strings.Repeat("a", MaxLineLen+10) + "\r\nNEXT\r\n")
	if _, err := c.ReadLine(); err != ErrLineTooLong {
		t.Fatalf("err = %v, want ErrLineTooLong", err)
	}
}

func TestWriteReply(t *testing.T) {
	c, b := newRW("")
	if err := c.WriteReply(ReplyOK); err != nil {
		t.Fatal(err)
	}
	if got := b.out.String(); got != "250 Ok\r\n" {
		t.Fatalf("wire = %q", got)
	}
}

func TestReadReplyMultiline(t *testing.T) {
	c, _ := newRW("250-first\r\n250-second\r\n250 last\r\n")
	r, err := c.ReadReply()
	if err != nil {
		t.Fatal(err)
	}
	if r.Code != 250 || r.Text != "first\nsecond\nlast" {
		t.Fatalf("reply = %+v", r)
	}
}

func TestReadReplyMalformed(t *testing.T) {
	for _, in := range []string{"xx\r\n", "abc d\r\n"} {
		c, _ := newRW(in)
		if _, err := c.ReadReply(); err == nil {
			t.Errorf("ReadReply(%q) accepted", in)
		}
	}
}

func TestReadDataDotHandling(t *testing.T) {
	c, _ := newRW("line one\r\n..leading dot\r\n.\r\n")
	data, err := c.ReadData(0)
	if err != nil {
		t.Fatal(err)
	}
	want := "line one\r\n.leading dot\r\n"
	if string(data) != want {
		t.Fatalf("data = %q, want %q", data, want)
	}
}

func TestReadDataEmptyMessage(t *testing.T) {
	c, _ := newRW(".\r\n")
	data, err := c.ReadData(0)
	if err != nil || len(data) != 0 {
		t.Fatalf("empty data = %q, %v", data, err)
	}
}

func TestReadDataSizeLimit(t *testing.T) {
	body := strings.Repeat("x", 100) + "\r\n"
	c, _ := newRW(body + body + ".\r\nNEXT\r\n")
	if _, err := c.ReadData(50); err != ErrMessageTooBig {
		t.Fatalf("err = %v, want ErrMessageTooBig", err)
	}
	// The stream stays synchronized: the next line is readable.
	line, err := c.ReadLine()
	if err != nil || string(line) != "NEXT" {
		t.Fatalf("post-overflow line = %q, %v", line, err)
	}
}

func TestReadDataEOFMidBody(t *testing.T) {
	c, _ := newRW("no terminator")
	if _, err := c.ReadData(0); err == nil {
		t.Fatal("EOF mid-data accepted")
	}
}

// WriteData sends a payload with dot-stuffing applied and the terminating
// dot, then flushes. The payload is split on CRLF or LF.
func (c *Conn) WriteData(body []byte) error {
	if err := c.writeData(body); err != nil {
		return err
	}
	return c.w.Flush()
}

func TestWriteDataStuffsDots(t *testing.T) {
	c, b := newRW("")
	if err := c.WriteData([]byte(".starts with dot\r\nplain\r\n")); err != nil {
		t.Fatal(err)
	}
	want := "..starts with dot\r\nplain\r\n.\r\n"
	if got := b.out.String(); got != want {
		t.Fatalf("wire = %q, want %q", got, want)
	}
}

func TestWriteDataEmpty(t *testing.T) {
	c, b := newRW("")
	c.WriteData(nil)
	if got := b.out.String(); got != ".\r\n" {
		t.Fatalf("wire = %q", got)
	}
}

func TestDataRoundTripProperty(t *testing.T) {
	// Property: WriteData then ReadData reproduces any line-structured
	// body, including dot lines.
	f := func(lines []string) bool {
		var body strings.Builder
		for _, l := range lines {
			l = strings.Map(func(r rune) rune {
				if r == '\r' || r == '\n' {
					return 'x'
				}
				return r
			}, l)
			body.WriteString(l)
			body.WriteString("\r\n")
		}
		in := body.String()

		sink := &rwBuf{in: &bytes.Buffer{}, out: &bytes.Buffer{}}
		w := NewConn(sink)
		if err := w.WriteData([]byte(in)); err != nil {
			return false
		}
		r, _ := newRW(sink.out.String())
		out, err := r.ReadData(0)
		if err != nil {
			return false
		}
		return string(out) == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestStreamDataShortPayload: a payload that ends before its announced
// size, or a before hook that fails, stops the stream without the
// terminating dot.
func TestStreamDataShortPayload(t *testing.T) {
	c, rw := newRW("")
	err := c.StreamData(strings.NewReader("line one\r\nline"), 100, nil)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short payload: err = %v", err)
	}
	c.Flush() //nolint:errcheck
	if got := rw.out.String(); strings.Contains(got, "\r\n.\r\n") || got != "line one\r\nline" {
		t.Fatalf("short payload sent %q", got)
	}

	c, rw = newRW("")
	stop := errors.New("deadline")
	calls := 0
	err = c.StreamData(strings.NewReader("a\r\n"), 3, func() error {
		calls++
		if calls == 2 {
			return stop
		}
		return nil
	})
	c.Flush() //nolint:errcheck
	if err != stop || rw.out.String() != "a\r\n" {
		t.Fatalf("failed final hook: err = %v, sent %q", err, rw.out.String())
	}
}
