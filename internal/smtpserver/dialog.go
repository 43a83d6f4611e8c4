package smtpserver

import (
	"errors"
	"net"
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
	// outcomeTrusted: the stop predicate fired (hybrid pre-trust phase
	// saw its first valid RCPT); the dialog should continue elsewhere.
	outcomeTrusted
)

// runDialog drives the session over c until QUIT, connection loss, or —
// when stopWhen is non-nil — the predicate becomes true after a reply is
// written. It is the single dialog loop both architectures share; the
// phases differ only in where it runs and when it stops. connTC is the
// connection's minted message-trace context (zero when tracing is off
// or sampled out); a context arriving on the wire as an XTRACE MAIL
// parameter — a director upstream — takes precedence over it. ip is the
// peer's address as the connection formatted it once.
func (s *Server) runDialog(nc net.Conn, ip string, c *smtp.Conn, sess *smtp.Session, stopWhen func(*smtp.Session) bool, connTC trace.Context) outcome {
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
			dataStart := time.Now()
			if err := c.WriteReply(reply); err != nil {
				return outcomeDropped
			}
			if err := nc.SetReadDeadline(time.Now().Add(s.cfg.idleTimeout)); err != nil {
				return outcomeDropped
			}
			body, err := c.ReadData(sess.MaxMessageBytes())
			if err != nil {
				if errors.Is(err, smtp.ErrMessageTooBig) {
					if c.WriteReply(sess.AbortData()) == nil {
						continue
					}
				}
				return outcomeDropped
			}
			env, done := sess.FinishData(body)
			// NewSpan on an invalid base is a free no-op, keeping the
			// sampled-out path allocation-free.
			sp := s.cfg.mtrace.NewSpan(traceBase(env.Trace, connTC))
			if _, err := s.cfg.enqueue(env.Sender, env.Rcpts, env.Data, sp); err != nil {
				s.enqueueFailures.Inc()
				done = smtp.ReplyInsufficient
				// A hook that knows better than "queue full" says so.
				var re smtp.ReplyError
				if errors.As(err, &re) {
					done = smtp.Reply(re)
				}
			} else {
				s.mailsAccepted.Inc()
			}
			s.cfg.mtrace.FinishAt(sp, trace.MStageSMTP, dataStart, time.Now(), s.cfg.arch.String())
			if err := c.WriteReply(done); err != nil {
				return outcomeDropped
			}
		case smtp.ActionQuit:
			c.WriteReply(reply) //nolint:errcheck // closing anyway
			return outcomeQuit
		default:
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
		}
		if stopWhen != nil && stopWhen(sess) {
			return outcomeTrusted
		}
	}
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

// vanillaWorker is one smtpd process of Figure 6: it takes whole
// connections and serves the entire dialog, bounces included.
func (s *Server) vanillaWorker(conns <-chan accepted) {
	defer s.workerWG.Done()
	for a := range conns {
		nc := a.nc
		// The time since the accept loop dispatched is the vanilla
		// handoff wait: master blocked until a worker freed up.
		s.observeStage(StageHandoffWait, a.id, a.at, "")
		c := smtp.AcquireConn(nc)
		ip := remoteIP(nc)
		// The vanilla architecture pays a worker for the policy check
		// itself — the cost contrast the policy-sweep experiment measures.
		if !s.admitPolicy(ip, c, a.id, true) {
			s.finish(nc, c, nil)
			continue
		}
		dialogStart := time.Now()
		sess := smtp.AcquireSession(s.sessionConfig(ip, a.id))
		out, bounce := outcomeDropped, true
		if c.WriteReply(sess.Greeting()) == nil {
			out = s.runDialog(nc, ip, c, sess, nil, s.cfg.mtrace.Mint())
			if out == outcomeQuit {
				s.sessionsServed.Inc()
			}
			bounce = !sess.HasValidRcpt() && sess.MailsCompleted() == 0
			if bounce {
				s.recordBounce(ip, sess)
				s.preTrustClosed.Inc()
			}
		}
		s.observeStage(StageDialog, a.id, dialogStart, outcomeNote(out))
		s.logConn(a.id, ip, outcomeNote(out), true, bounce)
		s.finish(nc, c, sess)
	}
}

// hybridFrontEnd is the master's event-loop role in Figure 7: it serves
// the banner and the dialog up to the first valid RCPT. Connections that
// never produce one — random-guessing bounces and unfinished sessions —
// are finished right here, costing no worker. Trusted connections are
// delegated to the worker pool through the bounded task queue.
func (s *Server) hybridFrontEnd(nc net.Conn, id uint64, sh *shard) {
	defer s.frontWG.Done()
	c := smtp.AcquireConn(nc)
	ip := remoteIP(nc)
	// Policy runs in the master's event loop: a rejected connection is
	// finished here, before any worker is committed — the paper's
	// fork-after-trust thesis extended from bounces to policy verdicts.
	if !s.admitPolicy(ip, c, id, false) {
		s.finish(nc, c, nil)
		return
	}
	preTrustStart := time.Now()
	sess := smtp.AcquireSession(s.sessionConfig(ip, id))
	tc := s.cfg.mtrace.Mint()
	out := outcomeDropped
	greeted := c.WriteReply(sess.Greeting()) == nil
	if greeted {
		out = s.runDialog(nc, ip, c, sess, (*smtp.Session).HasValidRcpt, tc)
	}
	s.observeStage(StagePreTrust, id, preTrustStart, outcomeNote(out))
	// The edge span of the mail's trace: what the front end spent before
	// trusting (or finishing) the connection. A trusted connection has seen
	// its MAIL, so a context the upstream hop sent is already known.
	psp := s.cfg.mtrace.NewSpan(traceBase(sess.Trace(), tc))
	s.cfg.mtrace.Finish(psp, trace.MStagePretrust, preTrustStart, outcomeNote(out))
	if out == outcomeTrusted {
		s.handoffs.Inc()
		// A full queue blocks the front end — the finite socket buffer
		// acting "as a natural throttle for the master process" (§5.3).
		// Conn and Session ownership moves to the worker, which releases
		// them back to the pools when the connection finishes. The minted
		// trace context travels with the task so post-trust mails keep
		// the connection's trace.
		sh.tasks <- &task{nc: nc, c: c, sess: sess, id: id, ip: ip, at: time.Now(), tc: tc}
		return
	}
	// Finished in the front end with no valid RCPT: a bounce that never
	// cost a worker — the connection fork-after-trust saves.
	if out == outcomeQuit {
		s.sessionsServed.Inc()
	}
	if greeted {
		s.recordBounce(ip, sess)
		s.preTrustClosed.Inc()
	}
	s.logConn(id, ip, outcomeNote(out), false, true)
	s.finish(nc, c, sess)
}

// recordBounce feeds a finished pre-trust connection that drew at least
// one 550 to the reputation store as a completed bounce.
func (s *Server) recordBounce(ip string, sess *smtp.Session) {
	if s.cfg.policy != nil && sess.RejectedRcpts() > 0 {
		s.cfg.policy.RecordBounce(ip)
	}
}

// hybridWorker is one delegated-mode smtpd process: it receives trusted
// connections mid-dialog and serves them to completion, then returns to
// listening on the task queue (§5.3).
func (s *Server) hybridWorker(tasks <-chan *task) {
	defer s.workerWG.Done()
	for t := range tasks {
		// Queue wait: from the front end's enqueue attempt to this
		// pickup — the §5.3 socket-buffer throttle made visible.
		s.observeStage(StageHandoffWait, t.id, t.at, "")
		dialogStart := time.Now()
		out := s.runDialog(t.nc, t.ip, t.c, t.sess, nil, t.tc)
		if out == outcomeQuit {
			s.sessionsServed.Inc()
		}
		s.observeStage(StageDialog, t.id, dialogStart, outcomeNote(out))
		// Trusted by definition (it was handed off), so never a bounce.
		s.logConn(t.id, t.ip, outcomeNote(out), true, false)
		s.finish(t.nc, t.c, t.sess)
	}
}
