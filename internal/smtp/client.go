package smtp

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"time"

	"repro/internal/trace"
)

// Client speaks the client side of SMTP over any stream — the engine of
// the paper's two load generators ("Client program 1" and "Client
// program 2" in Table 1) and of the director's forwarding hop.
//
// Commands are formatted into one reused line buffer and replies in the
// canonical texts are read back as shared values, so a steady-state
// transaction allocates nothing.
type Client struct {
	conn       *Conn
	raw        io.Closer
	banner     Reply
	cmdTimeout time.Duration
	// dl arms the per-command deadline: the stream, when a command
	// timeout is configured and the stream supports deadlines; else nil.
	dl deadliner
	// exts holds the extension keywords the server advertised in its
	// EHLO reply; nil until Ehlo/Hello succeeds with extensions.
	exts map[string]bool
	// line is the reused buffer each command line is formatted into.
	line []byte
}

// ClientOption configures a Client at construction.
type ClientOption func(*Client)

// WithCommandTimeout bounds every command round trip (write + reply
// read) and the DATA body transfer to d, when the underlying stream
// supports deadlines (net.Conn does). A stalled next hop then surfaces
// as a *CommandTimeoutError instead of pinning the caller — a delivery
// worker, typically — forever. Zero disables (the default).
func WithCommandTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.cmdTimeout = d }
}

// UnexpectedReplyError reports a server reply outside the expected class.
type UnexpectedReplyError struct {
	Op    string
	Reply Reply
}

func (e *UnexpectedReplyError) Error() string {
	return fmt.Sprintf("smtp: %s: unexpected reply %s", e.Op, e.Reply)
}

// CommandTimeoutError reports a command that exceeded the client's
// per-command timeout. It implements net.Error's Timeout contract, so
// errors.Is(err, context.DeadlineExceeded) callers and net-style
// timeout checks both work.
type CommandTimeoutError struct {
	// Op is the command that stalled (HELO, MAIL, DATA, ...).
	Op string
	// After is the configured per-command timeout.
	After time.Duration
}

func (e *CommandTimeoutError) Error() string {
	return fmt.Sprintf("smtp: %s: no reply within %v", e.Op, e.After)
}

// Timeout marks the error as a timeout (net.Error convention).
func (e *CommandTimeoutError) Timeout() bool { return true }

// Temporary marks the error as retryable: a stalled hop may recover.
func (e *CommandTimeoutError) Temporary() bool { return true }

// deadliner is the subset of net.Conn the command timeout needs.
type deadliner interface {
	SetDeadline(t time.Time) error
}

// armDeadline starts the per-command countdown, when there is one. A
// round trip arms it before its first write: a write larger than the
// write buffer reaches the stream at once, and must not block unbounded
// on a peer that stopped reading.
func (c *Client) armDeadline() {
	if c.dl != nil {
		c.dl.SetDeadline(time.Now().Add(c.cmdTimeout)) //nolint:errcheck // best effort: a failed arm surfaces as the op error
	}
}

// disarm clears the countdown armDeadline started and turns a deadline
// that expired during op into a *CommandTimeoutError.
func (c *Client) disarm(op string, err error) error {
	if c.dl == nil {
		return err
	}
	c.dl.SetDeadline(time.Time{}) //nolint:errcheck
	if err == nil {
		return nil
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return &CommandTimeoutError{Op: op, After: c.cmdTimeout}
	}
	return err
}

// NewClient wraps an established stream and reads the server banner.
func NewClient(rw io.ReadWriteCloser, opts ...ClientOption) (*Client, error) {
	c := &Client{conn: NewConn(rw), raw: rw}
	for _, o := range opts {
		o(c)
	}
	if d, ok := rw.(deadliner); ok && c.cmdTimeout > 0 {
		c.dl = d
	}
	c.armDeadline()
	banner, err := c.conn.ReadReply()
	if err = c.disarm("banner", err); err != nil {
		rw.Close()
		return nil, fmt.Errorf("smtp: reading banner: %w", err)
	}
	if banner.Code != 220 {
		rw.Close()
		return nil, &UnexpectedReplyError{Op: "banner", Reply: banner}
	}
	c.banner = banner
	return c, nil
}

// Dial connects to addr over TCP with a timeout and reads the banner.
func Dial(addr string, timeout time.Duration, opts ...ClientOption) (*Client, error) {
	return DialFrom(addr, "", timeout, opts...)
}

// DialFrom is Dial with an explicit local source address (an IP, port
// chosen by the kernel). Trace replayers use it to present each trace
// connection from its own loopback alias — 127.0.0.0/8 all routes to lo
// on Linux — so per-source server state (policy reputation, DNSBL
// verdicts, telemetry) keys on distinct addresses instead of collapsing
// onto 127.0.0.1. An empty local address behaves exactly like Dial.
func DialFrom(addr, local string, timeout time.Duration, opts ...ClientOption) (*Client, error) {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	d := net.Dialer{Timeout: timeout}
	if local != "" {
		ip := net.ParseIP(local)
		if ip == nil {
			return nil, fmt.Errorf("smtp: bad local address %q", local)
		}
		d.LocalAddr = &net.TCPAddr{IP: ip}
	}
	nc, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("smtp: dial %s: %w", addr, err)
	}
	return NewClient(nc, opts...)
}

// Banner returns the server's 220 greeting.
func (c *Client) Banner() Reply { return c.banner }

// writeLine buffers line, built in c.line, as one command without
// flushing, and keeps its buffer for the next command. The write buffer
// keeps its first error and the next Flush returns it, so the writers
// below need not check.
func (c *Client) writeLine(line []byte) {
	c.line = line
	c.conn.WriteLineLazy(line) //nolint:errcheck // reported by the next Flush
}

// command is one round trip of a single command: it buffers verb,
// followed by a space and arg when arg is set, and awaits the reply to
// verb, which must be want.
func (c *Client) command(verb, arg string, want int) (Reply, error) {
	c.armDeadline()
	line := append(c.line[:0], verb...)
	if arg != "" {
		line = append(append(line, ' '), arg...)
	}
	c.writeLine(line)
	return c.expect(verb, want)
}

// writeMail buffers MAIL FROM, carrying tc as an XTRACE parameter only
// when tc is a sampled context and the peer advertised XTRACE; otherwise
// the trace is silently dropped, so a hop without XTRACE sees an
// RFC-clean command. An empty sender sends the null reverse-path <>.
func (c *Client) writeMail(sender string, tc trace.Context) {
	line := append(append(c.line[:0], "MAIL FROM:<"...), sender...)
	line = append(line, '>')
	if tc.Valid() && c.Supports("XTRACE") {
		line = tc.AppendText(append(line, " XTRACE="...))
	}
	c.writeLine(line)
}

// writeRcpt buffers RCPT TO.
func (c *Client) writeRcpt(addr string) {
	c.writeLine(append(append(append(c.line[:0], "RCPT TO:<"...), addr...), '>'))
}

// await flushes what is buffered and reads the reply to op, under the
// deadline the round trip armed before its first write.
func (c *Client) await(op string) (Reply, error) {
	err := c.conn.Flush()
	var r Reply
	if err == nil {
		r, err = c.conn.ReadReply()
	}
	if err = c.disarm(op, err); err != nil {
		return Reply{}, fmt.Errorf("smtp: %s: %w", op, err)
	}
	return r, nil
}

// expect is await requiring the reply code want.
func (c *Client) expect(op string, want int) (Reply, error) {
	r, err := c.await(op)
	if err == nil && r.Code != want {
		err = &UnexpectedReplyError{Op: op, Reply: r}
	}
	return r, err
}

// Helo sends HELO.
func (c *Client) Helo(name string) error {
	_, err := c.command("HELO", name, 250)
	return err
}

// Ehlo sends EHLO and records the extension keywords the server
// advertises (first reply line is the hostname, each continuation one
// keyword with optional parameters).
func (c *Client) Ehlo(name string) error {
	r, err := c.command("EHLO", name, 250)
	if err != nil {
		return err
	}
	c.exts = nil
	lines := strings.Split(r.Text, "\n")
	for _, l := range lines[1:] {
		fields := strings.Fields(l)
		if len(fields) == 0 {
			continue
		}
		if c.exts == nil {
			c.exts = make(map[string]bool, len(lines)-1)
		}
		c.exts[strings.ToUpper(fields[0])] = true
	}
	return nil
}

// Hello greets the server, preferring EHLO and falling back to HELO
// when the peer rejects it — the RFC 5321 §3.2 downgrade, so extension
// discovery never costs interoperability with a pre-ESMTP peer.
func (c *Client) Hello(name string) error {
	err := c.Ehlo(name)
	var unexpected *UnexpectedReplyError
	if err != nil && errors.As(err, &unexpected) {
		return c.Helo(name)
	}
	return err
}

// Supports reports whether the server's EHLO reply advertised ext
// (upper-case keyword, e.g. "XTRACE").
func (c *Client) Supports(ext string) bool { return c.exts[ext] }

// Mail sends MAIL FROM. An empty sender sends the null reverse-path <>.
func (c *Client) Mail(sender string) error {
	c.armDeadline()
	c.writeMail(sender, trace.Context{})
	_, err := c.expect("MAIL", 250)
	return err
}

// Rcpt sends RCPT TO and returns the server reply; a 550 reply (bounce)
// is returned as the reply with a nil error so callers can count bounces
// without error plumbing.
func (c *Client) Rcpt(addr string) (Reply, error) {
	c.armDeadline()
	c.writeRcpt(addr)
	r, err := c.await("RCPT")
	if err == nil {
		_, err = rcptVerdict(r)
	}
	return r, err
}

// rcptVerdict classifies the reply to a RCPT: a 2xx accepts the
// recipient, a 550 refuses it cleanly (a nil error, accepted false), and
// any other reply is the returned error.
func rcptVerdict(r Reply) (accepted bool, err error) {
	switch {
	case r.Code/100 == 2:
		return true, nil
	case r.Code == 550:
		return false, nil
	}
	return false, &UnexpectedReplyError{Op: "RCPT", Reply: r}
}

// Data sends the message body through DATA and the terminating dot.
func (c *Client) Data(body []byte) error {
	if _, err := c.command("DATA", "", 354); err != nil {
		return err
	}
	return c.sendBody(body)
}

// sendBody sends the dot-encoded body after a 354 and reads the verdict.
func (c *Client) sendBody(body []byte) error {
	c.armDeadline()
	c.conn.writeData(body) //nolint:errcheck // reported by await's Flush
	_, err := c.expect("DATA body", 250)
	return err
}

// Reset sends RSET.
func (c *Client) Reset() error {
	_, err := c.command("RSET", "", 250)
	return err
}

// Quit sends QUIT and closes the connection.
func (c *Client) Quit() error {
	_, errCmd := c.command("QUIT", "", 221)
	errClose := c.raw.Close()
	if errCmd != nil {
		return errCmd
	}
	return errClose
}

// Abort closes the connection without QUIT — the "unfinished SMTP
// transaction" behaviour of §4.1.
func (c *Client) Abort() error { return c.raw.Close() }

// Send performs one whole mail transaction (MAIL, RCPTs, DATA). It
// returns the number of accepted recipients; if none are accepted no
// body is sent, mirroring what real clients (and spammers probing with
// random guesses) experience.
func (c *Client) Send(sender string, rcpts []string, body []byte) (accepted int, err error) {
	return c.SendTraced(sender, rcpts, body, trace.Context{})
}

// SendTraced is Send with a message trace context propagated as an
// XTRACE parameter of MAIL — only when tc is a sampled context and the
// peer advertised XTRACE; otherwise the trace is silently dropped.
//
// MAIL, each RCPT and DATA go into the write buffer in turn. When the
// peer advertised PIPELINING (RFC 2920) they leave in one flush and the
// replies are read after DATA: with the body, the transaction costs two
// round trips. Otherwise each command is flushed and answered before the
// next is written, and DATA is skipped when no recipient was accepted.
// Either way the replies count alike: MAIL must draw a 250, and each
// RCPT reply is judged as Rcpt judges it (rcptVerdict); any other reply
// is the returned error, and so is the first such refusal even when a
// later read fails. A refused transaction whose DATA already drew its 354
// is ended by closing the connection, since the peer would take any body
// that followed. When no recipient was accepted, RSET clears the
// transaction and the connection stays usable.
func (c *Client) SendTraced(sender string, rcpts []string, body []byte, tc trace.Context) (accepted int, err error) {
	pipelined := c.Supports("PIPELINING")
	var refused error // the first reply to MAIL or a RCPT that is an error
	var data Reply
	// Command 0 is MAIL, 1..len(rcpts) the RCPTs, last DATA. After
	// command i is written, the replies of commands read..i are read.
	last, read := len(rcpts)+1, 0
	for i := 0; i <= last && refused == nil; i++ {
		if i == last && !pipelined && accepted == 0 {
			return 0, c.Reset()
		}
		if read == i {
			c.armDeadline() // command i starts a round trip
		}
		switch {
		case i == 0:
			c.writeMail(sender, tc)
		case i < last:
			c.writeRcpt(rcpts[i-1])
		default:
			c.writeLine(append(c.line[:0], "DATA"...))
		}
		if pipelined && i < last {
			continue
		}
		op := sendOp(read, last)
		err := c.conn.Flush()
		for ; err == nil && read <= i; read++ {
			op = sendOp(read, last)
			var r Reply
			if r, err = c.conn.ReadReply(); err != nil {
				break
			}
			var ok bool
			var bad error
			switch read {
			case 0:
				if r.Code != 250 {
					bad = &UnexpectedReplyError{Op: "MAIL", Reply: r}
				}
			case last:
				data = r
			default:
				ok, bad = rcptVerdict(r)
			}
			if ok {
				accepted++
			}
			if refused == nil {
				refused = bad
			}
		}
		if err = c.disarm(op, err); err != nil {
			if refused != nil {
				return accepted, refused
			}
			return accepted, fmt.Errorf("smtp: %s: %w", op, err)
		}
	}
	switch {
	case data.Code == 354 && refused == nil:
		return accepted, c.sendBody(body)
	case data.Code == 354:
		c.Abort() //nolint:errcheck // the refusal is the error to report
		return accepted, refused
	case refused != nil:
		return accepted, refused
	case accepted == 0:
		return 0, c.Reset()
	default:
		return accepted, &UnexpectedReplyError{Op: "DATA", Reply: data}
	}
}

// sendOp names command i of SendTraced's sequence for errors.
func sendOp(i, last int) string {
	switch i {
	case 0:
		return "MAIL"
	case last:
		return "DATA"
	}
	return "RCPT"
}
