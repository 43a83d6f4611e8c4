package smtp

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
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
	// data is the reusable DATA accumulation buffer; ReadData and
	// ReadChunk return a view into it, valid until the next of either
	// on this Conn. StreamData reads its chunks into the same buffer.
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

// ReadChunk reads the size octets of a BDAT chunk raw (no dot codec)
// into the body buffer after its first off octets and returns the body
// so far: a view valid until the next ReadData or ReadChunk.
func (c *Conn) ReadChunk(off, size int) ([]byte, error) {
	c.data = slices.Grow(c.data[:off], size)
	body := c.data[:off+size]
	if _, err := io.ReadFull(c.r, body[off:]); err != nil {
		return nil, fmt.Errorf("smtp: reading chunk: %w", err)
	}
	return body, nil
}

// DiscardChunk reads the size octets of a refused BDAT chunk and drops
// them; the body buffer does not grow.
func (c *Conn) DiscardChunk(size int) error { _, err := c.r.Discard(size); return err }

// writeData buffers a payload with dot-stuffing applied and the
// terminating dot, without flushing. The payload is split on CRLF or LF.
func (c *Conn) writeData(body []byte) error {
	var st dotState
	if err := c.stuff(&st, body); err != nil {
		return err
	}
	return c.endData(st)
}

// streamChunk caps the chunk StreamData reads a payload in.
const streamChunk = 32 << 10

// StreamData writes the size-byte payload r yields, dot-stuffed, and the
// terminating dot, without holding the payload: each read fills at most
// streamChunk bytes of the Conn's pooled body buffer, and the stuffing
// state carries across reads, so the split of the payload into reads
// never shows on the wire. It does not flush: what the caller does
// before its Flush is done before the peer holds the whole payload. before,
// if not nil, runs ahead of each read and of the terminator; a server
// arms its write deadline there, so a peer that reads slowly but
// steadily still gets the whole payload. A read error, or a payload
// shorter than size, returns before the terminator is written: the peer
// never takes a truncated payload for a whole one.
func (c *Conn) StreamData(r io.Reader, size int64, before func() error) error {
	c.data = slices.Grow(c.data[:0], int(min(size, streamChunk)))
	chunk := c.data[:min(cap(c.data), streamChunk)]
	var st dotState
	for size > 0 {
		if before != nil {
			if err := before(); err != nil {
				return err
			}
		}
		n, err := r.Read(chunk[:min(size, int64(len(chunk)))])
		if n == 0 && err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return fmt.Errorf("smtp: reading data: %w", err)
		}
		size -= int64(n)
		if err := c.stuff(&st, chunk[:n]); err != nil {
			return err
		}
	}
	if before != nil {
		if err := before(); err != nil {
			return err
		}
	}
	return c.endData(st)
}

// dotState is where a dot-stuffed payload stands between two pieces.
type dotState struct {
	midLine bool // the last byte written did not end a line
	cr      bool // a CR ended the last piece; an LF next would drop it
}

// stuff writes the next piece of a payload with the DATA line rules: a
// leading dot doubled, one CR before each LF dropped, every LF sent as
// CRLF. A CR that ends p is held in st until the next byte shows
// whether it ends the line.
func (c *Conn) stuff(st *dotState, p []byte) error {
	if len(p) == 0 {
		return nil
	}
	if st.cr {
		st.cr = false
		if p[0] != '\n' { // the held CR is text
			if err := c.w.WriteByte('\r'); err != nil {
				return err
			}
		}
	}
	midLine := st.midLine
	for len(p) > 0 {
		if !midLine && p[0] == '.' {
			if err := c.w.WriteByte('.'); err != nil {
				return err
			}
		}
		i := bytes.IndexByte(p, '\n')
		if i < 0 {
			st.midLine = true
			if p[len(p)-1] == '\r' {
				p, st.cr = p[:len(p)-1], true
			}
			_, err := c.w.Write(p)
			return err
		}
		if _, err := c.w.Write(trimCR(p[:i])); err != nil {
			return err
		}
		if _, err := c.w.WriteString("\r\n"); err != nil {
			return err
		}
		p, midLine = p[i+1:], false
	}
	st.midLine = false
	return nil
}

// endData ends a payload stuff has written: a CR still held is text, a
// final line without a newline gets its CRLF, then the terminating dot.
func (c *Conn) endData(st dotState) error {
	if st.cr {
		if err := c.w.WriteByte('\r'); err != nil {
			return err
		}
	}
	if st.midLine {
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
