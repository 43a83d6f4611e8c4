package smtpserver

import (
	"errors"
	"net"
	"net/netip"
	"time"

	"repro/internal/smtp"
	"repro/internal/trace"
)

// outcome reports how a dialog phase ended.
type outcome int

const (
	// outcomeQuit: client sent QUIT; 221 has been written.
	outcomeQuit outcome = iota + 1
	// outcomeDropped: connection error or EOF (an unfinished transaction
	// in §4.1 terms when it happens pre-trust).
	outcomeDropped
	// outcomeTrusted: a dialog run until trust saw its first valid RCPT;
	// the connection takes a slot and the dialog continues.
	outcomeTrusted
)

// runDialog drives the session over c until QUIT, connection loss, or —
// when untilTrust is set — the first reply written with a valid RCPT
// recorded. It is the single dialog loop both architectures share; a
// hybrid connection runs it until trust, takes its slot, and runs it
// again to the end. A reply to a pipelined burst may still be buffered
// at trust; the next flush sends it. connTC is the
// connection's minted message-trace context (zero when tracing is off
// or sampled out); a context arriving on the wire as an XTRACE MAIL
// parameter — a director upstream — takes precedence over it. ip is the
// peer's address as the connection resolved it once.
func (s *Server) runDialog(nc net.Conn, ip netip.Addr, c *smtp.Conn, sess *smtp.Session, untilTrust bool, connTC trace.Context) outcome {
	for {
		if err := nc.SetReadDeadline(time.Now().Add(s.cfg.idleTimeout)); err != nil {
			return outcomeDropped
		}
		line, err := c.ReadLine()
		if err != nil {
			if errors.Is(err, smtp.ErrLineTooLong) {
				if c.WriteReply(smtp.ReplyLineTooLong) == nil {
					continue
				}
			}
			return outcomeDropped
		}
		reply, action := sess.CommandBytes(line)
		if reply.Code == smtp.ReplyUserUnknown.Code {
			s.rcptRejected.Inc()
			if s.cfg.policy != nil {
				// Each 550 is a §4.1 bounce signal; feed it to the
				// reputation store so repeat offenders are refused at
				// connect time on their next visit.
				s.cfg.policy.RecordRejectedRcpt(ip)
			}
		}
		switch action {
		case smtp.ActionData:
			// The 354 must reach the client before it will send the body,
			// so this flush also drains any batched pipelined replies.
			if err := c.WriteReply(reply); err != nil {
				return outcomeDropped
			}
			if err := nc.SetReadDeadline(time.Now().Add(s.cfg.idleTimeout)); err != nil {
				return outcomeDropped
			}
			body, err := c.ReadData(sess.MaxMessageBytes())
			switch {
			case errors.Is(err, smtp.ErrMessageTooBig):
				reply = sess.AbortData()
			case err != nil:
				return outcomeDropped
			default:
				reply = s.finishMail(sess, body, connTC)
			}
		case smtp.ActionChunk:
			off, size, last := sess.Chunk()
			body, err := c.ReadChunk(off, size)
			if err != nil {
				return outcomeDropped
			}
			if last {
				reply = s.finishMail(sess, body, connTC)
			}
		case smtp.ActionDiscard:
			_, size, _ := sess.Chunk()
			if c.DiscardChunk(size) != nil {
				return outcomeDropped
			}
		case smtp.ActionQuit:
			c.WriteReply(reply) //nolint:errcheck // closing anyway
			if reply != smtp.ReplyBye {
				return outcomeDropped // the server ended it: an oversize BDAT
			}
			return outcomeQuit
		}
		// Pipelining batch: while the client has already sent the next
		// command, buffer the reply and answer the whole burst with one
		// flush — one writev for N replies instead of N small writes.
		// Only safe when input is pending: a lazy reply to a client
		// that is waiting for it would deadlock the dialog.
		if c.InputPending() {
			if err := c.WriteReplyLazy(reply); err != nil {
				return outcomeDropped
			}
		} else if err := c.WriteReply(reply); err != nil {
			return outcomeDropped
		}
		if untilTrust && sess.HasValidRcpt() {
			return outcomeTrusted
		}
	}
}

// finishMail hands a transaction's body, from DATA or BDAT, to the
// enqueue hook under the mail's "smtp" span and returns its reply. The
// span starts here, once the whole body is in, so it measures the same
// stage under either verb: never the client's time sending the body.
func (s *Server) finishMail(sess *smtp.Session, body []byte, connTC trace.Context) smtp.Reply {
	start := time.Now()
	env, done := sess.FinishData(body)
	// NewSpan on an invalid base is a free no-op, keeping the
	// sampled-out path allocation-free.
	sp := s.cfg.mtrace.NewSpan(traceBase(env.Trace, connTC))
	if _, err := s.cfg.enqueue(env.Sender, env.Rcpts, env.Data, sp); err != nil {
		s.enqueueFailures.Inc()
		done = smtp.ReplyInsufficient
		// A hook that knows better than "insufficient storage" says so.
		var re smtp.ReplyError
		if errors.As(err, &re) {
			done = smtp.Reply(re)
		}
	} else {
		s.mailsAccepted.Inc()
	}
	s.cfg.mtrace.FinishAt(sp, trace.MStageSMTP, start, time.Now(), s.cfg.arch.String())
	return done
}

// outcomeNote maps a dialog outcome to its span note.
func outcomeNote(out outcome) string {
	switch out {
	case outcomeQuit:
		return "quit"
	case outcomeTrusted:
		return "trusted"
	default:
		return "dropped"
	}
}

// traceBase picks the context a connection's spans hang under: the one
// the upstream hop sent on the wire (XTRACE), else this connection's
// minted root.
func traceBase(wire, conn trace.Context) trace.Context {
	if wire.Valid() {
		return wire
	}
	return conn
}

// finish tears a connection down: the socket is closed and the Conn and
// Session (nil when the dialog never started) go back to their pools.
func (s *Server) finish(nc net.Conn, c *smtp.Conn, sess *smtp.Session) {
	s.untrack(nc)
	nc.Close()
	smtp.ReleaseConn(c)
	smtp.ReleaseSession(sess)
}

// serve runs one connection's whole life on its own goroutine: the
// connect-time policy verdict, the banner, the dialog to its end, and the
// teardown. A worker is a slot, and the architecture decides only where
// the connection takes it: under vanilla the accept loop took it before
// starting serve, so the slot pays for the policy check and for every
// bounce; under hybrid serve takes it where runDialog first sees a valid
// RCPT, so a connection that never names one — a bounce, an unfinished
// session, a policy refusal — ends without costing a worker. A held slot
// is given back when the connection ends.
func (s *Server) serve(nc net.Conn, id uint64) {
	defer s.served.Done()
	held := s.cfg.arch == Vanilla
	c := smtp.AcquireConn(nc)
	ip := remoteIP(nc)
	var sess *smtp.Session
	if s.admitPolicy(ip, c, id, held) {
		sess = smtp.AcquireSession(s.sessionConfig(ip, id))
		held = s.dialog(nc, ip, c, sess, id, held)
	}
	s.finish(nc, c, sess)
	if held {
		<-s.slots
	}
}

// dialog greets the client and serves the dialog to its end, taking a
// slot at trust when it does not hold one yet, and reports whether it
// holds one at the end. The stage before trust is timed as pretrust; the
// one holding a slot, as dialog.
func (s *Server) dialog(nc net.Conn, ip netip.Addr, c *smtp.Conn, sess *smtp.Session, id uint64, held bool) bool {
	start := time.Now()
	tc := s.cfg.mtrace.Mint()
	out, trusted := outcomeDropped, false
	greeted := c.WriteReply(sess.Greeting()) == nil
	if greeted {
		out = s.runDialog(nc, ip, c, sess, !held, tc)
	}
	if !held {
		s.observeStage(StagePreTrust, id, start, outcomeNote(out))
		// The edge span of the mail's trace: what the connection spent
		// before trust (or its end). A trusted connection has seen its
		// MAIL, so a context the upstream hop sent is already known.
		psp := s.cfg.mtrace.NewSpan(traceBase(sess.Trace(), tc))
		s.cfg.mtrace.Finish(psp, trace.MStagePretrust, start, outcomeNote(out))
		if out == outcomeTrusted {
			s.handoffs.Inc()
			start = time.Now()
			s.slots <- struct{}{}
			s.observeStage(StageHandoffWait, id, start, "")
			held, trusted = true, true
			start = time.Now()
			out = s.runDialog(nc, ip, c, sess, false, tc)
		}
	}
	if held {
		s.observeStage(StageDialog, id, start, outcomeNote(out))
	}
	if out == outcomeQuit {
		s.sessionsServed.Inc()
	}
	// A bounce ends with no mail delivered and no valid recipient held
	// (§4.1); a connection trusted at a valid RCPT is never one.
	bounce := !trusted && !sess.HasValidRcpt() && sess.MailsCompleted() == 0
	if greeted && bounce {
		s.recordBounce(ip, sess)
		s.preTrustClosed.Inc()
	}
	s.logConn(id, ip, outcomeNote(out), held, bounce)
	return held
}

// recordBounce feeds a finished pre-trust connection that drew at least
// one 550 to the reputation store as a completed bounce.
func (s *Server) recordBounce(ip netip.Addr, sess *smtp.Session) {
	if s.cfg.policy != nil && sess.RejectedRcpts() > 0 {
		s.cfg.policy.RecordBounce(ip)
	}
}
