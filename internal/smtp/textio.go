package smtp

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Limits on protocol elements, following RFC 5321 §4.5.3 with the
// postfix-style message size cap.
const (
	// MaxLineLen bounds a command line including CRLF.
	MaxLineLen = 1024
	// MaxMessageBytes bounds the DATA payload after dot-decoding.
	MaxMessageBytes = 16 << 20
)

// connBufSize is the size of a Conn's read and write buffers. It must
// exceed MaxLineLen so a maximal command line always fits in one
// ReadSlice view.
const connBufSize = 4096

// ErrLineTooLong is returned when a command line exceeds MaxLineLen.
var ErrLineTooLong = errors.New("smtp: line too long")

// ErrMessageTooBig is returned when DATA exceeds MaxMessageBytes.
var ErrMessageTooBig = errors.New("smtp: message exceeds size limit")

// Conn wraps a bidirectional stream with SMTP line discipline: CRLF line
// reads with length limits, reply writing, and dot-encoded data transfer.
// The hot methods (ReadLine, WriteReply, ReadData) are allocation-free in
// steady state: lines are views into the read buffer, replies come from
// the preformatted wire table or the scratch buffer, and DATA bodies
// accumulate into a reusable buffer grown in place.
type Conn struct {
	r *bufio.Reader
	w *bufio.Writer
	// scratch formats non-canonical replies without fmt.
	scratch []byte
	// data is the reusable DATA accumulation buffer; ReadData returns a
	// view into it, valid until the next ReadData on this Conn.
	data []byte
}

// NewConn returns a Conn over rw. Server code on the accept path should
// prefer AcquireConn/ReleaseConn, which reuse the buffers across
// connections.
func NewConn(rw io.ReadWriter) *Conn {
	return &Conn{r: bufio.NewReaderSize(rw, connBufSize), w: bufio.NewWriterSize(rw, connBufSize)}
}

// ReadLine reads one CRLF- (or bare-LF-) terminated line without its
// terminator. The returned slice is a view into the read buffer, valid
// only until the next read on this Conn; callers that keep it must copy.
// Lines longer than MaxLineLen fail with ErrLineTooLong after consuming
// through the next terminator, so the session can answer 500 and
// resynchronize.
func (c *Conn) ReadLine() ([]byte, error) {
	line, err := c.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		// Longer than the whole buffer: drain through the terminator so
		// the stream stays synchronized, then report the oversize.
		for err == bufio.ErrBufferFull {
			_, err = c.r.ReadSlice('\n')
		}
		if err != nil {
			return nil, err
		}
		return nil, ErrLineTooLong
	}
	if err != nil {
		if err == io.EOF && len(line) > 0 {
			// A final unterminated line still counts.
			return trimCR(line), nil
		}
		return nil, err
	}
	if len(line) > MaxLineLen {
		return nil, ErrLineTooLong
	}
	return trimCR(line[:len(line)-1]), nil
}

// trimCR drops one trailing carriage return.
func trimCR(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\r' {
		return line[:n-1]
	}
	return line
}

// writeReply buffers one reply line without flushing: canonical replies
// come straight from the preformatted wire table, everything else is
// formatted into the scratch buffer.
func (c *Conn) writeReply(r Reply) error {
	if wire, ok := replyWires[r]; ok {
		_, err := c.w.Write(wire)
		return err
	}
	c.scratch = appendReply(c.scratch[:0], r)
	_, err := c.w.Write(c.scratch)
	return err
}

// WriteReply sends one reply line and flushes.
func (c *Conn) WriteReply(r Reply) error {
	if err := c.writeReply(r); err != nil {
		return err
	}
	return c.w.Flush()
}

// WriteReplyLazy buffers one reply line without flushing. The dialog
// loop uses it to batch the replies of a pipelined command burst into
// one vectored flush: as long as another complete command is already
// buffered (InputPending), the reply can wait for its batch.
func (c *Conn) WriteReplyLazy(r Reply) error { return c.writeReply(r) }

// Flush writes out any buffered replies.
func (c *Conn) Flush() error { return c.w.Flush() }

// InputPending reports whether a complete command line is already
// buffered on the read side — the pipelining signal that makes it safe
// to delay a reply flush without deadlocking a waiting client.
func (c *Conn) InputPending() bool {
	n := c.r.Buffered()
	if n == 0 {
		return false
	}
	buf, err := c.r.Peek(n)
	if err != nil {
		return false
	}
	return bytes.IndexByte(buf, '\n') >= 0
}

// WriteLine sends one raw line with CRLF and flushes.
func (c *Conn) WriteLine(line string) error {
	if _, err := c.w.WriteString(line); err != nil {
		return err
	}
	if _, err := c.w.WriteString("\r\n"); err != nil {
		return err
	}
	return c.w.Flush()
}

// WriteLineLazy buffers one raw line with CRLF without flushing, for a
// multi-line response (a POP3 listing) that goes out in one Flush after
// its terminating line rather than in one write(2) per line.
func (c *Conn) WriteLineLazy(line []byte) error {
	if _, err := c.w.Write(line); err != nil {
		return err
	}
	_, err := c.w.WriteString("\r\n")
	return err
}

// ReadData reads a dot-terminated DATA payload, removing dot-stuffing
// (RFC 5321 §4.5.2): a leading ".." becomes ".", and a lone "." ends the
// message. Lines are joined with CRLF. The limit caps the decoded size.
// The returned slice is a view into the Conn's reusable body buffer,
// valid until the next ReadData; callers that keep the body must copy
// (the queue does, on Enqueue).
func (c *Conn) ReadData(limit int) ([]byte, error) {
	if limit <= 0 {
		limit = MaxMessageBytes
	}
	buf := c.data[:0]
	tooBig := false
	atStart := true // at the beginning of a protocol line
	for {
		chunk, err := c.r.ReadSlice('\n')
		full := err == nil // chunk ends with '\n'
		if err == bufio.ErrBufferFull {
			err = nil
		}
		if err != nil {
			c.data = buf
			return nil, fmt.Errorf("smtp: reading data: %w", err)
		}
		if atStart {
			if full && (len(chunk) == 2 && chunk[0] == '.' || len(chunk) == 3 && chunk[0] == '.' && chunk[1] == '\r') {
				// Lone "." terminator.
				c.data = buf
				if tooBig {
					return nil, ErrMessageTooBig
				}
				return buf, nil
			}
			if len(chunk) > 0 && chunk[0] == '.' {
				// Remove dot-stuffing.
				chunk = chunk[1:]
			}
		}
		if full {
			// Normalize the terminator to CRLF.
			chunk = trimCR(chunk[:len(chunk)-1])
		}
		if !tooBig {
			need := len(buf) + len(chunk)
			if full {
				need += 2
			}
			if need > limit {
				// Keep consuming to the terminating dot so the session can
				// report 552 and stay synchronized.
				tooBig = true
			} else {
				buf = append(buf, chunk...)
				if full {
					buf = append(buf, '\r', '\n')
				}
			}
		}
		atStart = full
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

// writeData is WriteData without the flush.
func (c *Conn) writeData(body []byte) error {
	for len(body) > 0 {
		line := body
		if i := bytes.IndexByte(body, '\n'); i >= 0 {
			line = trimCR(body[:i])
			body = body[i+1:]
		} else {
			body = nil
		}
		if len(line) > 0 && line[0] == '.' {
			if err := c.w.WriteByte('.'); err != nil {
				return err
			}
		}
		if _, err := c.w.Write(line); err != nil {
			return err
		}
		if _, err := c.w.WriteString("\r\n"); err != nil {
			return err
		}
	}
	_, err := c.w.WriteString(".\r\n")
	return err
}

// ReadReply reads one (possibly multiline) server reply. This is the
// client side. A canonical reply ("250 Ok", "354 …", "250 Ok: queued")
// comes back as the shared value without allocating; any other text is
// copied out of the read buffer.
func (c *Conn) ReadReply() (Reply, error) {
	var texts []string
	for {
		line, err := c.ReadLine()
		if err != nil {
			return Reply{}, err
		}
		if len(line) < 3 {
			return Reply{}, fmt.Errorf("smtp: short reply line %q", line)
		}
		code, ok := parseCode(line[:3])
		if !ok {
			return Reply{}, fmt.Errorf("smtp: bad reply code in %q", line)
		}
		more := len(line) > 3 && line[3] == '-'
		if !more && texts == nil {
			if r, ok := replyLines[string(line)]; ok {
				return r, nil
			}
			return Reply{Code: code, Text: replyText(line)}, nil
		}
		texts = append(texts, replyText(line))
		if !more {
			return Reply{Code: code, Text: strings.Join(texts, "\n")}, nil
		}
	}
}

// replyText copies the text after a reply line's code and separator.
func replyText(line []byte) string {
	if len(line) > 4 {
		return string(line[4:])
	}
	return ""
}

// parseCode parses a 3-digit reply code.
func parseCode(b []byte) (int, bool) {
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}
