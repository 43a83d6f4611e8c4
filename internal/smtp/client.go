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
type Client struct {
	conn       *Conn
	raw        io.Closer
	banner     Reply
	cmdTimeout time.Duration
	// exts holds the extension keywords the server advertised in its
	// EHLO reply; nil until Ehlo/Hello succeeds with extensions.
	exts map[string]bool
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

// armDeadline starts the per-command countdown; the returned func
// clears it and translates a deadline-exceeded error.
func (c *Client) armDeadline(op string) func(err error) error {
	d, ok := c.raw.(deadliner)
	if c.cmdTimeout <= 0 || !ok {
		return func(err error) error { return err }
	}
	d.SetDeadline(time.Now().Add(c.cmdTimeout)) //nolint:errcheck // best effort: a failed arm surfaces as the op error
	return func(err error) error {
		d.SetDeadline(time.Time{}) //nolint:errcheck
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return &CommandTimeoutError{Op: op, After: c.cmdTimeout}
		}
		return err
	}
}

// NewClient wraps an established stream and reads the server banner.
func NewClient(rw io.ReadWriteCloser, opts ...ClientOption) (*Client, error) {
	c := &Client{conn: NewConn(rw), raw: rw}
	for _, o := range opts {
		o(c)
	}
	done := c.armDeadline("banner")
	banner, err := c.conn.ReadReply()
	if err != nil {
		rw.Close()
		return nil, fmt.Errorf("smtp: reading banner: %w", done(err))
	}
	done(nil)
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

// cmd sends a command and checks the reply against wantCode (0 = any
// positive). The whole round trip runs under the per-command deadline
// when one is configured.
func (c *Client) cmd(op, line string, wantCode int) (Reply, error) {
	done := c.armDeadline(op)
	if err := c.conn.WriteLine(line); err != nil {
		return Reply{}, fmt.Errorf("smtp: %s: %w", op, done(err))
	}
	r, err := c.conn.ReadReply()
	if err = done(err); err != nil {
		return Reply{}, fmt.Errorf("smtp: %s: %w", op, err)
	}
	if wantCode != 0 && r.Code != wantCode {
		return r, &UnexpectedReplyError{Op: op, Reply: r}
	}
	if wantCode == 0 && !r.IsPositive() {
		return r, &UnexpectedReplyError{Op: op, Reply: r}
	}
	return r, nil
}

// Helo sends HELO.
func (c *Client) Helo(name string) error {
	_, err := c.cmd("HELO", "HELO "+name, 250)
	return err
}

// Ehlo sends EHLO and records the extension keywords the server
// advertises (first reply line is the hostname, each continuation one
// keyword with optional parameters).
func (c *Client) Ehlo(name string) error {
	r, err := c.cmd("EHLO", "EHLO "+name, 250)
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
	_, err := c.cmd("MAIL", fmt.Sprintf("MAIL FROM:<%s>", sender), 250)
	return err
}

// MailTraced sends MAIL FROM carrying tc as an XTRACE parameter — but
// only when the peer advertised XTRACE and tc is a sampled context;
// otherwise it degrades to a plain Mail, silently dropping the trace
// so non-supporting hops see an RFC-clean command.
func (c *Client) MailTraced(sender string, tc trace.Context) error {
	if !tc.Valid() || !c.Supports("XTRACE") {
		return c.Mail(sender)
	}
	var buf [trace.ContextTextLen]byte
	line := fmt.Sprintf("MAIL FROM:<%s> XTRACE=%s", sender, tc.AppendText(buf[:0]))
	_, err := c.cmd("MAIL", line, 250)
	return err
}

// Rcpt sends RCPT TO and returns the server reply; a 550 reply (bounce)
// is returned as the reply with a nil error so callers can count bounces
// without error plumbing.
func (c *Client) Rcpt(addr string) (Reply, error) {
	r, err := c.cmd("RCPT", fmt.Sprintf("RCPT TO:<%s>", addr), 0)
	var unexpected *UnexpectedReplyError
	if err != nil && errors.As(err, &unexpected) && unexpected.Reply.Code == 550 {
		return unexpected.Reply, nil
	}
	return r, err
}

// Data sends the message body through DATA and the terminating dot.
func (c *Client) Data(body []byte) error {
	if _, err := c.cmd("DATA", "DATA", 354); err != nil {
		return err
	}
	done := c.armDeadline("DATA body")
	if err := c.conn.WriteData(body); err != nil {
		return fmt.Errorf("smtp: sending data: %w", done(err))
	}
	r, err := c.conn.ReadReply()
	if err = done(err); err != nil {
		return fmt.Errorf("smtp: data reply: %w", err)
	}
	if r.Code != 250 {
		return &UnexpectedReplyError{Op: "DATA body", Reply: r}
	}
	return nil
}

// Reset sends RSET.
func (c *Client) Reset() error {
	_, err := c.cmd("RSET", "RSET", 250)
	return err
}

// Quit sends QUIT and closes the connection.
func (c *Client) Quit() error {
	_, errCmd := c.cmd("QUIT", "QUIT", 221)
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
// returns the number of accepted recipients; if none are accepted the
// DATA phase is skipped, mirroring what real clients (and spammers
// probing with random guesses) experience.
func (c *Client) Send(sender string, rcpts []string, body []byte) (accepted int, err error) {
	return c.SendTraced(sender, rcpts, body, trace.Context{})
}

// SendTraced is Send with a message trace context propagated on the
// MAIL command (see MailTraced for the degradation rules).
func (c *Client) SendTraced(sender string, rcpts []string, body []byte, tc trace.Context) (accepted int, err error) {
	if err := c.MailTraced(sender, tc); err != nil {
		return 0, err
	}
	for _, rcpt := range rcpts {
		r, err := c.Rcpt(rcpt)
		if err != nil {
			return accepted, err
		}
		if r.Code == 250 {
			accepted++
		}
	}
	if accepted == 0 {
		// Clear the failed transaction so the connection is reusable.
		if err := c.Reset(); err != nil {
			return 0, err
		}
		return 0, nil
	}
	if err := c.Data(body); err != nil {
		return accepted, err
	}
	return accepted, nil
}
