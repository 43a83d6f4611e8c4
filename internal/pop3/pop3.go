// Package pop3 implements the retrieval side of the mail system: a POP3
// (RFC 1939) server reading from a mailstore.Store — a node's MFS. The
// paper's §6.1 observes that mail servers, POP and IMAP servers all access
// mailboxes "in units of mails" — which is exactly why MFS is
// record-oriented; this server is the consumer that observation is about.
//
// The command set is the RFC 1939 minimal profile plus UIDL: USER, PASS,
// STAT, LIST, UIDL, RETR, DELE, NOOP, RSET, QUIT. Deletions are staged
// during the session and applied at QUIT (the UPDATE state), per the RFC.
//
// A login costs the store one Stat — ids and sizes, no body read — and
// the session answers STAT, LIST and UIDL from that snapshot, so what a
// session costs follows the number of mails in the maildrop and the
// bodies it actually retrieves, not the bytes the maildrop holds.
package pop3

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/mailstore"
	"repro/internal/metrics"
	"repro/internal/smtp"
)

// Authenticator decides whether a USER/PASS pair may open a mailbox. The
// mailbox name is the user name.
type Authenticator func(user, pass string) bool

// Config parameterizes a Server.
type Config struct {
	// Store is the mailbox store to serve; required.
	Store mailstore.Store
	// Auth validates credentials; nil accepts every user that has a
	// mailbox (lab configuration).
	Auth Authenticator
	// Hostname appears in the greeting banner.
	Hostname string
	// IdleTimeout bounds each wait for a client command (default 60s).
	IdleTimeout time.Duration
}

// Stats counts server activity.
type Stats struct {
	Sessions  int64
	Retrieved int64
	Deleted   int64
	AuthFails int64
}

// Server is a POP3 server. Create with New, start with Serve, stop with
// Close.
type Server struct {
	cfg Config

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]bool
	closed bool
	wg     sync.WaitGroup

	sessions  metrics.Counter
	retrieved metrics.Counter
	deleted   metrics.Counter
	authFails metrics.Counter
}

// New returns an unstarted server.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("pop3: Store is required")
	}
	if cfg.Hostname == "" {
		cfg.Hostname = "mail.example.org"
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 60 * time.Second
	}
	return &Server{cfg: cfg, conns: make(map[net.Conn]bool)}, nil
}

// Stats returns a snapshot of the counters.
func (s *Server) Stats() Stats {
	return Stats{
		Sessions:  s.sessions.Value(),
		Retrieved: s.retrieved.Value(),
		Deleted:   s.deleted.Value(),
		AuthFails: s.authFails.Value(),
	}
}

// Serve accepts connections until Close. It blocks.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("pop3: server closed")
	}
	if s.ln != nil {
		s.mu.Unlock()
		return errors.New("pop3: already serving")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("pop3: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.conns[nc] = true
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(nc)
	}
}

// Close stops accepting, force-closes open sessions, and waits.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("pop3: already closed")
	}
	s.closed = true
	ln := s.ln
	for nc := range s.conns {
		nc.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

func (s *Server) untrack(nc net.Conn) {
	s.mu.Lock()
	delete(s.conns, nc)
	s.mu.Unlock()
}

// session holds one connection's state.
type session struct {
	srv  *Server
	c    *smtp.Conn // reuses the SMTP line/dot codec: POP3 shares both
	user string
	// authed marks the transition from AUTHORIZATION to TRANSACTION.
	authed bool
	// msgs is the maildrop — ids and sizes — as one Store.Stat saw it at
	// PASS. RFC 1939 locks the maildrop for the session and a stored
	// body never changes, so STAT, LIST and UIDL are answered from this
	// snapshot with no store call. Message number n is msgs[n-1].
	msgs []mailstore.MailInfo
	// deleted[n-1] marks message n as staged for deletion at QUIT.
	deleted []bool
	// line is the scratch every reply line is formatted into.
	line []byte
}

// newSession starts a session over rw on a pooled smtp.Conn, which the
// caller releases when the session ends.
func (s *Server) newSession(rw io.ReadWriter) *session {
	return &session{srv: s, c: smtp.AcquireConn(rw)}
}

func (s *Server) serveConn(nc net.Conn) {
	defer s.wg.Done()
	defer s.untrack(nc)
	defer nc.Close()
	s.sessions.Inc()
	sess := s.newSession(nc)
	defer smtp.ReleaseConn(sess.c)
	if err := sess.ok("POP3 server ready on " + s.cfg.Hostname); err != nil {
		return
	}
	for {
		if err := nc.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout)); err != nil {
			return
		}
		line, err := sess.c.ReadLine()
		if err != nil {
			return
		}
		verb, arg := splitCommand(string(line))
		quit, err := sess.dispatch(verb, arg)
		if err != nil || quit {
			return
		}
	}
}

func splitCommand(line string) (verb, arg string) {
	verb = line
	if i := strings.IndexByte(line, ' '); i >= 0 {
		verb, arg = line[:i], strings.TrimSpace(line[i+1:])
	}
	return strings.ToUpper(verb), arg
}

// Reply lines are built in the scratch buffer without fmt: begin starts
// one, str appends text, num appends " n".
func (s *session) begin(text string) { s.line = append(s.line[:0], text...) }
func (s *session) str(text string)   { s.line = append(s.line, text...) }
func (s *session) num(n int)         { s.line = strconv.AppendInt(append(s.line, ' '), int64(n), 10) }

// send writes the reply line and flushes: the end of a response.
func (s *session) send() error {
	if err := s.c.WriteLineLazy(s.line); err != nil {
		return err
	}
	return s.c.Flush()
}

func (s *session) ok(text string) error   { s.begin("+OK "); s.str(text); return s.send() }
func (s *session) errr(text string) error { s.begin("-ERR "); s.str(text); return s.send() }

// dispatch handles one command; quit reports session end.
func (s *session) dispatch(verb, arg string) (quit bool, err error) {
	switch verb {
	case "QUIT":
		return true, s.quit()
	case "NOOP":
		return false, s.ok("")
	case "USER":
		return false, s.cmdUser(arg)
	case "PASS":
		return false, s.cmdPass(arg)
	case "STAT", "LIST", "UIDL", "RETR", "DELE", "RSET":
		if !s.authed {
			return false, s.errr("log in first")
		}
	}
	switch verb {
	case "STAT":
		return false, s.cmdStat()
	case "LIST":
		return false, s.cmdList(arg)
	case "UIDL":
		return false, s.cmdUidl(arg)
	case "RETR":
		return false, s.cmdRetr(arg)
	case "DELE":
		return false, s.cmdDele(arg)
	case "RSET":
		for i := range s.deleted {
			s.deleted[i] = false
		}
		return false, s.ok("reset")
	default:
		return false, s.errr("unknown command")
	}
}

func (s *session) cmdUser(arg string) error {
	if s.authed {
		return s.errr("already authenticated")
	}
	if arg == "" {
		return s.errr("USER requires a name")
	}
	// The name becomes part of a file path in the store.
	if !mailstore.ValidMailbox(arg) {
		return s.errr("invalid user name")
	}
	s.user = arg
	return s.ok("user accepted, send PASS")
}

func (s *session) cmdPass(arg string) error {
	if s.authed {
		return s.errr("already authenticated")
	}
	if s.user == "" {
		return s.errr("send USER first")
	}
	if s.srv.cfg.Auth != nil && !s.srv.cfg.Auth(s.user, arg) {
		s.srv.authFails.Inc()
		s.user = ""
		return s.errr("authentication failed")
	}
	msgs, err := s.srv.cfg.Store.Stat(s.user)
	// An empty maildrop is not an error: new users simply have no mail
	// yet.
	if err != nil && !errors.Is(err, mailstore.ErrNotFound) {
		return s.errr("maildrop unavailable")
	}
	s.msgs = msgs
	s.deleted = make([]bool, len(msgs))
	s.authed = true
	s.begin("+OK maildrop has")
	s.num(len(msgs))
	s.str(" messages")
	return s.send()
}

// totals returns the count and summed size of the undeleted messages.
func (s *session) totals() (n, octets int) {
	for i, m := range s.msgs {
		if !s.deleted[i] {
			n++
			octets += m.Size
		}
	}
	return n, octets
}

// message resolves a 1-based message number argument to its index in
// msgs, or says why it names no message.
func (s *session) message(arg string) (i int, problem string) {
	n, err := strconv.Atoi(arg)
	if err != nil || n < 1 || n > len(s.msgs) {
		return 0, "no such message"
	}
	if s.deleted[n-1] {
		return 0, "message deleted"
	}
	return n - 1, ""
}

func (s *session) cmdStat() error {
	n, octets := s.totals()
	s.begin("+OK")
	s.num(n)
	s.num(octets)
	return s.send()
}

// listing sends a multi-line response: head, one line per undeleted
// message as row formats it, and the terminating dot. Lines are buffered
// and the response is flushed once, so a listing costs a write per buffer
// filled rather than a write per message.
func (s *session) listing(row func(i int)) error {
	if err := s.c.WriteLineLazy(s.line); err != nil {
		return err
	}
	for i := range s.msgs {
		if s.deleted[i] {
			continue
		}
		s.line = strconv.AppendInt(s.line[:0], int64(i+1), 10)
		row(i)
		if err := s.c.WriteLineLazy(s.line); err != nil {
			return err
		}
	}
	s.begin(".")
	return s.send()
}

func (s *session) cmdList(arg string) error {
	if arg != "" {
		i, problem := s.message(arg)
		if problem != "" {
			return s.errr(problem)
		}
		s.begin("+OK")
		s.num(i + 1)
		s.num(s.msgs[i].Size)
		return s.send()
	}
	n, octets := s.totals()
	s.begin("+OK")
	s.num(n)
	s.str(" messages (")
	s.line = strconv.AppendInt(s.line, int64(octets), 10)
	s.str(" octets)")
	return s.listing(func(i int) { s.num(s.msgs[i].Size) })
}

func (s *session) cmdUidl(arg string) error {
	if arg != "" {
		i, problem := s.message(arg)
		if problem != "" {
			return s.errr(problem)
		}
		s.begin("+OK")
		s.num(i + 1)
		s.str(" ")
		s.str(s.msgs[i].ID)
		return s.send()
	}
	s.begin("+OK unique-id listing")
	return s.listing(func(i int) { s.str(" "); s.str(s.msgs[i].ID) })
}

func (s *session) cmdRetr(arg string) error {
	i, problem := s.message(arg)
	if problem != "" {
		return s.errr(problem)
	}
	body, err := s.srv.cfg.Store.Read(s.user, s.msgs[i].ID)
	if err != nil {
		return s.errr("message unavailable")
	}
	s.begin("+OK")
	s.num(len(body))
	s.str(" octets")
	if err := s.c.WriteLineLazy(s.line); err != nil {
		return err
	}
	s.srv.retrieved.Inc()
	// The SMTP dot codec is exactly POP3's multi-line response framing;
	// its flush carries the status line too.
	return s.c.WriteData(body)
}

func (s *session) cmdDele(arg string) error {
	i, problem := s.message(arg)
	if problem != "" {
		return s.errr(problem)
	}
	s.deleted[i] = true
	s.begin("+OK message")
	s.num(i + 1)
	s.str(" deleted")
	return s.send()
}

// quit enters the UPDATE state: staged deletions are applied against the
// store in message order (one mfs.Delete / mbox rewrite per message) and
// the session ends. A message that is already gone counts as removed;
// any other failure is reported, as RFC 1939 §6 requires.
func (s *session) quit() error {
	failed := 0
	for i, staged := range s.deleted {
		if !staged {
			continue
		}
		err := s.srv.cfg.Store.Delete(s.user, s.msgs[i].ID)
		switch {
		case err == nil:
			s.srv.deleted.Inc()
		case !errors.Is(err, mailstore.ErrNotFound):
			failed++
		}
	}
	if failed > 0 {
		return s.errr("some deleted messages not removed")
	}
	return s.ok("bye")
}
