package smtp

import "repro/internal/trace"

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
	// CheckMail, if non-nil, is the policy hook for MAIL FROM: a non-nil
	// reply (e.g. a 450 rate-limit tempfail) overrides acceptance and
	// leaves the session awaiting another MAIL.
	CheckMail func(sender string) *Reply
	// CheckRcpt, if non-nil, is the policy hook for recipients that
	// passed ValidateRcptBytes: a non-nil reply (e.g. a greylist 450)
	// overrides acceptance without recording the recipient, so the
	// hybrid front end keeps the connection un-trusted.
	CheckRcpt func(sender, rcpt string) *Reply
	// MaxRcpts caps accepted recipients per mail (0 = postfix default 50).
	MaxRcpts int
	// MaxMessageBytes caps the DATA payload (0 = MaxMessageBytes).
	MaxMessageBytes int
	// Ehlo, if non-nil, is the (precomputed, possibly multiline) reply
	// to EHLO — hostname first line, one advertised extension keyword
	// per continuation. nil answers EHLO like HELO: no extensions.
	Ehlo *Reply
}

// Envelope is one completed mail transaction.
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
// The machine is allocation-free in steady state: HELO name, sender, and
// recipients are copied into buffers that are reused across transactions
// (and, via AcquireSession, across connections), and duplicate-recipient
// detection runs over an open-addressed index instead of a string scan.
// Heap traffic only happens on first growth and when FinishData
// materializes the Envelope the queue keeps.
type Session struct {
	cfg   Config
	state State

	helo   []byte
	sender []byte
	// senderSet distinguishes MAIL FROM:<> (bounce sender) from no MAIL.
	senderSet bool

	// Accepted recipients live in nrcpts reused slot buffers; rcptIdx is
	// the case-folded duplicate index over them.
	nrcpts   int
	rcptBufs [][]byte
	rcptIdx  rcptIndex

	// xtrace is the trace context carried by the current transaction's
	// XTRACE MAIL parameter (held by value: no allocation).
	xtrace trace.Context

	rejectedRcpts int
	mailsDone     int
}

// NewSession returns a session awaiting HELO.
func NewSession(cfg Config) *Session {
	s := &Session{}
	s.Reset(cfg)
	return s
}

// Reset re-initializes the session for a new connection with cfg,
// keeping grown buffers so a pooled session serves its next connection
// without allocating.
func (s *Session) Reset(cfg Config) {
	if cfg.Hostname == "" {
		cfg.Hostname = "mail.example.org"
	}
	if cfg.MaxRcpts == 0 {
		cfg.MaxRcpts = 50
	}
	if cfg.MaxMessageBytes == 0 {
		cfg.MaxMessageBytes = MaxMessageBytes
	}
	s.cfg = cfg
	s.state = StateStart
	s.helo = s.helo[:0]
	s.resetMail()
	s.rejectedRcpts = 0
	s.mailsDone = 0
}

// Greeting returns the 220 banner to send on accept.
func (s *Session) Greeting() Reply { return Banner(s.cfg.Hostname) }

// State returns the current protocol state.
func (s *Session) State() State { return s.state }

// Helo returns the client's HELO/EHLO name.
func (s *Session) Helo() string { return string(s.helo) }

// Sender returns the MAIL FROM address ("" for the null sender).
func (s *Session) Sender() string { return string(s.sender) }

// Rcpts returns the accepted recipients so far.
func (s *Session) Rcpts() []string {
	if s.nrcpts == 0 {
		return nil
	}
	out := make([]string, s.nrcpts)
	for i := 0; i < s.nrcpts; i++ {
		out[i] = string(s.rcptBufs[i])
	}
	return out
}

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
		s.helo = append(s.helo[:0], cmd.Arg...)
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
		if s.cfg.CheckMail != nil {
			if r := s.cfg.CheckMail(string(cmd.Addr)); r != nil {
				return *r, ActionNone
			}
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
		if s.nrcpts >= s.cfg.MaxRcpts {
			return ReplyTooManyRcpts, ActionNone
		}
		if v := s.cfg.ValidateRcptBytes; v != nil && !v(cmd.Addr) {
			// "550 User unknown" — the bounce of §4.1. State is
			// unchanged; the client may try other recipients.
			s.rejectedRcpts++
			return ReplyUserUnknown, ActionNone
		}
		pos, dup := s.rcptIdx.lookup(s.rcptBufs[:s.nrcpts], cmd.Addr)
		if dup {
			// Accepted duplicate collapses silently, as postfix does.
			return ReplyOK, ActionNone
		}
		if s.cfg.CheckRcpt != nil {
			if r := s.cfg.CheckRcpt(string(s.sender), string(cmd.Addr)); r != nil {
				return *r, ActionNone
			}
		}
		s.appendRcpt(pos, cmd.Addr)
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
	default:
		return ReplyUnknownCommand, ActionNone
	}
}

// appendRcpt stores addr in the next recipient slot (reusing its buffer)
// and records it in the duplicate index at the probed position.
func (s *Session) appendRcpt(pos int, addr []byte) {
	if s.nrcpts < len(s.rcptBufs) {
		s.rcptBufs[s.nrcpts] = append(s.rcptBufs[s.nrcpts][:0], addr...)
	} else {
		s.rcptBufs = append(s.rcptBufs, append([]byte(nil), addr...))
	}
	s.nrcpts++
	s.rcptIdx.insert(pos, s.nrcpts) // 1-based slot id
}

// FinishData completes the DATA transaction with the decoded body and
// returns the envelope plus the reply to send. The session returns to the
// greeted state, ready for the next MAIL (postfix allows pipelined
// transactions on one connection). The Envelope's strings are fresh
// copies — this is the one deliberately allocating step, because the
// queue keeps the envelope past the session's lifetime.
func (s *Session) FinishData(body []byte) (Envelope, Reply) {
	env := Envelope{
		Sender: string(s.sender),
		Rcpts:  s.Rcpts(),
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
	s.rcptIdx.clear()
	s.xtrace = trace.Context{}
}

// ---------------------------------------------------------------------------
// Duplicate-recipient index.

// rcptIndex is a small open-addressed hash index over the session's
// accepted-recipient slots, keyed by the ASCII-case-folded address. It
// replaces the old O(n²) EqualFold scan: a mailbomb pushing thousands of
// RCPTs into a generously configured session now costs O(1) per command
// instead of a quadratic CPU burn before any trust decision. Folding is
// ASCII-only (addresses are validated to be control-free single-@
// tokens); exotic Unicode case pairs are treated as distinct recipients.
type rcptIndex struct {
	// tab holds 1-based recipient slot ids; 0 is empty. Sized to a power
	// of two at least 2× MaxRcpts, allocated once and reused.
	tab []int32
}

func (ri *rcptIndex) clear() {
	for i := range ri.tab {
		ri.tab[i] = 0
	}
}

// ensure sizes the table for capacity n.
func (ri *rcptIndex) ensure(n int) {
	want := 16
	for want < 2*n {
		want *= 2
	}
	if len(ri.tab) < want {
		ri.tab = make([]int32, want)
	}
}

// lookup probes for addr among the populated slots. It returns the probe
// position for a later insert and whether the address is already
// present.
func (ri *rcptIndex) lookup(slots [][]byte, addr []byte) (pos int, found bool) {
	ri.ensure(cap(slots) + 1)
	mask := uint32(len(ri.tab) - 1)
	h := foldHash(addr)
	for i := h & mask; ; i = (i + 1) & mask {
		id := ri.tab[i]
		if id == 0 {
			return int(i), false
		}
		if equalFoldBytes(slots[id-1], addr) {
			return int(i), true
		}
	}
}

// insert records slot id (1-based) at the position lookup returned.
func (ri *rcptIndex) insert(pos, id int) { ri.tab[pos] = int32(id) }

// foldHash is FNV-1a over the ASCII-case-folded bytes of b.
func foldHash(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		if 'A' <= c && c <= 'Z' {
			c |= 0x20
		}
		h = (h ^ uint32(c)) * 16777619
	}
	return h
}

// equalFoldBytes compares two byte slices ASCII-case-insensitively.
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
