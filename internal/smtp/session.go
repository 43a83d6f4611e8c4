package smtp

import (
	"slices"
	"strings"

	"repro/internal/trace"
)

// State is the SMTP session state.
type State int

// Session states.
const (
	// StateStart awaits HELO/EHLO.
	StateStart State = iota + 1
	// StateGreeted awaits MAIL FROM.
	StateGreeted
	// StateMail has a sender and awaits RCPT TO.
	StateMail
	// StateRcpt has at least one accepted recipient; DATA is allowed.
	StateRcpt
	// StateChunk has taken a BDAT chunk without LAST: only more chunks,
	// RSET, NOOP, QUIT or a new greeting may follow.
	StateChunk
	// StateQuit is terminal.
	StateQuit
)

// Action tells the connection driver what to do after a command's reply
// has been sent.
type Action int

// Actions returned by Session.Command.
const (
	// ActionNone continues reading commands.
	ActionNone Action = iota + 1
	// ActionData switches to reading the dot-terminated message body;
	// pass it to Session.FinishData.
	ActionData
	// ActionQuit closes the connection after the reply.
	ActionQuit
	// ActionChunk reads the BDAT chunk Session.Chunk describes into the
	// body; after a LAST chunk the body goes to FinishData.
	ActionChunk
	// ActionDiscard reads the refused chunk Session.Chunk describes and
	// drops it.
	ActionDiscard
)

// Config parameterizes a session. The zero value works for tests; servers
// set the hostname and the recipient validator (the access-database hook
// smtpd queries, §2).
type Config struct {
	// Hostname appears in the banner and HELO reply.
	Hostname string
	// ValidateRcptBytes reports whether a recipient mailbox exists; nil
	// accepts everything. The address is a view into the command line,
	// so validation adds no per-RCPT heap traffic; the callee must not
	// retain the slice past the call.
	ValidateRcptBytes func(addr []byte) bool
	// CheckRcpt, if non-nil, is the policy hook for recipients that
	// passed ValidateRcptBytes: a non-nil reply (e.g. a greylist 450)
	// overrides acceptance without recording the recipient, so the
	// hybrid front end keeps the connection un-trusted.
	CheckRcpt func(sender, rcpt string) *Reply
	// MaxMessageBytes caps the DATA payload (0 = MaxMessageBytes).
	MaxMessageBytes int
	// Ehlo, if non-nil, is the (precomputed, possibly multiline) reply
	// to EHLO — hostname first line, one advertised extension keyword
	// per continuation. nil answers EHLO like HELO: no extensions.
	Ehlo *Reply
}

// MaxRcpts caps accepted recipients per mail: postfix's default
// smtpd_recipient_limit. The next RCPT draws 452.
const MaxRcpts = 50

// Envelope is one completed mail transaction, as FinishData returns it.
// Sender and every recipient are substrings of one string FinishData
// allocates per mail, so they are immutable and may be kept. The Rcpts
// slice and Data are the session's and the connection's: they are valid
// until the enqueue hook the envelope is handed to returns, and a hook
// that keeps either past that copies it (the queue clones Rcpts when it
// spools a mail).
type Envelope struct {
	Sender string
	Rcpts  []string
	Data   []byte
	// Trace is the message trace context received as an XTRACE MAIL
	// parameter; the zero Context when the client sent none.
	Trace trace.Context
}

// Session is the per-connection SMTP state machine. Both architectures
// drive the same machine: the vanilla server runs it inside a worker for
// the whole dialog, the hybrid master runs it in the event loop until the
// first valid RCPT and then hands it to a worker (§5.3 transfers exactly
// the state this struct holds: client identity, sender, recipients).
//
// The machine is allocation-free in steady state: sender and recipients
// are copied into buffers that are reused across transactions (and, via
// AcquireSession, across connections), and duplicate-recipient detection
// is a case-folded scan of at most MaxRcpts-1 accepted addresses. Heap
// traffic only happens on first growth and in FinishData's one envelope
// string per mail.
type Session struct {
	cfg   Config
	state State

	sender []byte
	// senderSet distinguishes MAIL FROM:<> (bounce sender) from no MAIL.
	senderSet bool

	// Accepted recipients live in nrcpts reused slot buffers.
	nrcpts   int
	rcptBufs [][]byte

	// envRcpts backs the Rcpts of the Envelope FinishData last returned.
	envRcpts []string

	// xtrace is the trace context carried by the current transaction's
	// XTRACE MAIL parameter (held by value: no allocation).
	xtrace trace.Context

	// held counts the octets the transaction's accepted BDAT chunks
	// hold; chunkOff, chunkLen and chunkLast describe the last BDAT.
	held, chunkOff, chunkLen int
	chunkLast                bool

	rejectedRcpts int
	mailsDone     int
}

// Reset re-initializes the session for a new connection with cfg,
// keeping grown buffers so a pooled session serves its next connection
// without allocating.
func (s *Session) Reset(cfg Config) {
	if cfg.Hostname == "" {
		cfg.Hostname = "mail.example.org"
	}
	if cfg.MaxMessageBytes == 0 {
		cfg.MaxMessageBytes = MaxMessageBytes
	}
	s.cfg = cfg
	s.state = StateStart
	clear(s.envRcpts) // a pooled session keeps no mail's strings alive
	s.resetMail()
	s.rejectedRcpts = 0
	s.mailsDone = 0
}

// Greeting returns the 220 banner to send on accept.
func (s *Session) Greeting() Reply { return Banner(s.cfg.Hostname) }

// HasValidRcpt reports whether at least one recipient has been accepted —
// the fork-after-trust delegation trigger (§5.1: "if even a single
// recipient address is confirmed to be valid, the master process
// delegates the connection").
func (s *Session) HasValidRcpt() bool { return s.nrcpts > 0 }

// RejectedRcpts returns the number of 550-rejected recipients — the
// bounce signal of §4.1.
func (s *Session) RejectedRcpts() int { return s.rejectedRcpts }

// MailsCompleted returns the number of completed DATA transactions.
func (s *Session) MailsCompleted() int { return s.mailsDone }

// Trace returns the trace context the current transaction's MAIL carried
// as an XTRACE parameter; the zero Context outside a traced transaction.
func (s *Session) Trace() trace.Context { return s.xtrace }

// MaxMessageBytes returns the configured DATA cap for Conn.ReadData.
func (s *Session) MaxMessageBytes() int { return s.cfg.MaxMessageBytes }

// Chunk describes the last BDAT's chunk: its offset in the body (0 for
// a refused chunk), its size, and whether it is LAST.
func (s *Session) Chunk() (off, size int, last bool) { return s.chunkOff, s.chunkLen, s.chunkLast }

// CommandBytes feeds one raw command line (without CRLF) to the state
// machine and returns the reply to send plus the driver action. The line
// is only read during the call; the session copies anything it keeps.
func (s *Session) CommandBytes(line []byte) (Reply, Action) {
	if s.state == StateQuit {
		return ReplyBadSequence, ActionQuit
	}
	cmd, err := ParseCommand(line)
	if err != nil {
		if _, ok := err.(*ErrUnknownVerb); ok {
			return ReplyUnknownCommand, ActionNone
		}
		return ReplySyntax, ActionNone
	}
	switch cmd.Verb {
	case VerbQUIT:
		s.state = StateQuit
		return ReplyBye, ActionQuit
	case VerbNOOP:
		return ReplyOK, ActionNone
	case VerbRSET:
		s.resetMail()
		if s.state != StateStart {
			s.state = StateGreeted
		}
		return ReplyOK, ActionNone
	case VerbVRFY:
		// Postfix answers 252 without disclosing mailbox existence;
		// mirroring that avoids turning VRFY into a harvesting oracle.
		return ReplyVrfy, ActionNone
	case VerbHELO, VerbEHLO:
		s.resetMail()
		s.state = StateGreeted
		if cmd.Verb == VerbEHLO && s.cfg.Ehlo != nil {
			return *s.cfg.Ehlo, ActionNone
		}
		return HeloReply(s.cfg.Hostname), ActionNone
	case VerbMAIL:
		if s.state == StateStart {
			return ReplyNeedHelo, ActionNone
		}
		if s.state != StateGreeted {
			return ReplyBadSequence, ActionNone
		}
		s.sender = append(s.sender[:0], cmd.Addr...)
		s.senderSet = true
		if v := ParamValue(cmd.Params, "XTRACE"); v != nil {
			// By-value capture of the propagated trace context; a
			// malformed value degrades to "not traced", never an error.
			s.xtrace, _ = trace.ParseContext(v)
		}
		s.state = StateMail
		return ReplyOK, ActionNone
	case VerbRCPT:
		if s.state != StateMail && s.state != StateRcpt {
			return ReplyBadSequence, ActionNone
		}
		if s.nrcpts >= MaxRcpts {
			return ReplyTooManyRcpts, ActionNone
		}
		if v := s.cfg.ValidateRcptBytes; v != nil && !v(cmd.Addr) {
			// "550 User unknown" — the bounce of §4.1. State is
			// unchanged; the client may try other recipients.
			s.rejectedRcpts++
			return ReplyUserUnknown, ActionNone
		}
		if slices.ContainsFunc(s.rcptBufs[:s.nrcpts], func(r []byte) bool { return equalFoldBytes(r, cmd.Addr) }) {
			// Accepted duplicate collapses silently, as postfix does.
			return ReplyOK, ActionNone
		}
		if s.cfg.CheckRcpt != nil {
			if r := s.cfg.CheckRcpt(string(s.sender), string(cmd.Addr)); r != nil {
				return *r, ActionNone
			}
		}
		s.appendRcpt(cmd.Addr)
		s.state = StateRcpt
		return ReplyOK, ActionNone
	case VerbDATA:
		if s.state == StateMail {
			// MAIL but no accepted RCPT.
			return ReplyNoValidRcpts, ActionNone
		}
		if s.state != StateRcpt {
			return ReplyBadSequence, ActionNone
		}
		return ReplyStartData, ActionData
	case VerbBDAT:
		if s.held+cmd.Size > s.cfg.MaxMessageBytes {
			// Too big to read for nothing: the session ends instead.
			s.state = StateQuit
			return ReplyTooBig, ActionQuit
		}
		s.chunkOff, s.chunkLen, s.chunkLast = 0, cmd.Size, cmd.Last
		switch s.state {
		case StateRcpt, StateChunk:
			s.chunkOff = s.held
			s.held += cmd.Size
			s.state = StateChunk
			return ReplyOK, ActionChunk
		case StateMail:
			// The refused chunk fails the transaction (RFC 3030 §2).
			s.resetMail()
			s.state = StateGreeted
			return ReplyNoValidRcpts, ActionDiscard
		}
		return ReplyBadSequence, ActionDiscard
	default:
		return ReplyUnknownCommand, ActionNone
	}
}

// appendRcpt stores addr in the next recipient slot, reusing its buffer.
func (s *Session) appendRcpt(addr []byte) {
	if s.nrcpts < len(s.rcptBufs) {
		s.rcptBufs[s.nrcpts] = append(s.rcptBufs[s.nrcpts][:0], addr...)
	} else {
		s.rcptBufs = append(s.rcptBufs, append([]byte(nil), addr...))
	}
	s.nrcpts++
}

// FinishData completes the transaction with its body, decoded from DATA
// or joined from BDAT chunks, and returns the envelope plus the reply to
// send. The session returns to the greeted state, ready for the next
// MAIL (postfix allows pipelined transactions on one connection). Sender
// and recipients are copied into one fresh string, the transaction's only
// allocation once the session's buffers have grown; the Envelope's Rcpts
// slice is the session's, valid until the next FinishData (see Envelope).
func (s *Session) FinishData(body []byte) (Envelope, Reply) {
	n := len(s.sender)
	for _, r := range s.rcptBufs[:s.nrcpts] {
		n += len(r)
	}
	var b strings.Builder
	b.Grow(n)
	b.Write(s.sender)
	for _, r := range s.rcptBufs[:s.nrcpts] {
		b.Write(r)
	}
	all := b.String()
	off := len(s.sender)
	s.envRcpts = s.envRcpts[:0]
	for _, r := range s.rcptBufs[:s.nrcpts] {
		s.envRcpts = append(s.envRcpts, all[off:off+len(r)])
		off += len(r)
	}
	env := Envelope{
		Sender: all[:len(s.sender)],
		Rcpts:  s.envRcpts,
		Data:   body,
		Trace:  s.xtrace,
	}
	s.mailsDone++
	s.resetMail()
	s.state = StateGreeted
	return env, ReplyOKQueued
}

// AbortData reports a failed body read (oversize) and resets the
// transaction.
func (s *Session) AbortData() Reply {
	s.resetMail()
	s.state = StateGreeted
	return ReplyTooBig
}

func (s *Session) resetMail() {
	s.sender = s.sender[:0]
	s.senderSet = false
	s.nrcpts = 0
	s.xtrace = trace.Context{}
	s.held = 0
}

// equalFoldBytes compares two byte slices ASCII-case-insensitively.
// Folding is ASCII-only (addresses are validated to be control-free
// single-@ tokens); exotic Unicode case pairs are distinct recipients.
func equalFoldBytes(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca |= 0x20
		}
		if 'A' <= cb && cb <= 'Z' {
			cb |= 0x20
		}
		if ca != cb {
			return false
		}
	}
	return true
}
