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
// bodies it actually retrieves, not the bytes the maildrop holds. RETR
// streams a body from the store to the socket in chunks of one pooled
// buffer, so it costs no memory that follows the body's size either.
package pop3

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"strconv"
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
	// IdleTimeout bounds each wait for a client command, and each wait
	// for the client to take the next chunk of a response (default 60s):
	// a client that stops reading ends its session.
	IdleTimeout time.Duration
	// Registry receives the pop3_* metrics; nil keeps them private to the
	// server (Stats still reads them).
	Registry *metrics.Registry
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

	sessions  *metrics.Counter
	retrieved *metrics.Counter
	deleted   *metrics.Counter
	authFails *metrics.Counter
	// retrSeconds times a RETR from dispatch until its terminating dot
	// is written, just before the flush that sends the dot's last byte.
	retrSeconds *metrics.Histogram
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
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Server{
		cfg:         cfg,
		conns:       make(map[net.Conn]bool),
		sessions:    reg.Counter("pop3_sessions_total"),
		retrieved:   reg.Counter("pop3_retrieved_total"),
		deleted:     reg.Counter("pop3_deleted_total"),
		authFails:   reg.Counter("pop3_auth_failures_total"),
		retrSeconds: reg.Histogram("pop3_retr_seconds", metrics.LatencyBounds()),
	}, nil
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

// Serve accepts connections until Close. It blocks. Running out of
// descriptors or memory does not end it: it logs, waits and accepts
// again (smtp.AcceptBackoff).
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
	var backoff smtp.AcceptBackoff
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			if d, ok := backoff.Retry(err); ok {
				log.Printf("pop3: accept: %v; retrying in %v", err, d)
				time.Sleep(d)
				continue
			}
			return fmt.Errorf("pop3: accept: %w", err)
		}
		backoff.Reset()
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
	srv *Server
	c   *smtp.Conn // reuses the SMTP line/dot codec: POP3 shares both
	// nc is the connection, whose write deadline each chunk of a RETR
	// re-arms; nil for a session driven without one.
	nc   net.Conn
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
	// body is the reader over the mail RETR is sending; a field, so that
	// handing it to StreamData as an io.Reader allocates nothing.
	body io.SectionReader
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
	sess.nc = nc
	defer smtp.ReleaseConn(sess.c)
	if err := nc.SetDeadline(time.Now().Add(s.cfg.IdleTimeout)); err != nil {
		return
	}
	if err := sess.ok("POP3 server ready on " + s.cfg.Hostname); err != nil {
		return
	}
	for {
		// One deadline for the command and its reply; RETR re-arms the
		// write side per chunk of the body.
		if err := nc.SetDeadline(time.Now().Add(s.cfg.IdleTimeout)); err != nil {
			return
		}
		line, err := sess.c.ReadLine()
		if err != nil {
			return
		}
		quit, err := sess.dispatch(line)
		if err != nil || quit {
			return
		}
	}
}

// Command verbs as foldVerb keys them.
const (
	keyUSER = 'u'<<24 | 's'<<16 | 'e'<<8 | 'r'
	keyPASS = 'p'<<24 | 'a'<<16 | 's'<<8 | 's'
	keySTAT = 's'<<24 | 't'<<16 | 'a'<<8 | 't'
	keyLIST = 'l'<<24 | 'i'<<16 | 's'<<8 | 't'
	keyUIDL = 'u'<<24 | 'i'<<16 | 'd'<<8 | 'l'
	keyRETR = 'r'<<24 | 'e'<<16 | 't'<<8 | 'r'
	keyDELE = 'd'<<24 | 'e'<<16 | 'l'<<8 | 'e'
	keyNOOP = 'n'<<24 | 'o'<<16 | 'o'<<8 | 'p'
	keyRSET = 'r'<<24 | 's'<<16 | 'e'<<8 | 't'
	keyQUIT = 'q'<<24 | 'u'<<16 | 'i'<<8 | 't'
)

// foldVerb keys a verb token case-insensitively without copying it, as
// smtp's parser does; every POP3 verb is four letters, anything else
// keys to 0.
func foldVerb(v []byte) uint32 {
	if len(v) != 4 {
		return 0
	}
	return uint32(v[0]|0x20)<<24 | uint32(v[1]|0x20)<<16 | uint32(v[2]|0x20)<<8 | uint32(v[3]|0x20)
}

// splitCommand splits a command line at its first space into the verb
// and the argument, trimmed; both are views into line.
func splitCommand(line []byte) (verb, arg []byte) {
	verb = line
	if i := bytes.IndexByte(line, ' '); i >= 0 {
		verb, arg = line[:i], bytes.TrimSpace(line[i+1:])
	}
	return verb, arg
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

// dispatch handles one command line, which it reads in place and does
// not keep; quit reports session end.
func (s *session) dispatch(line []byte) (quit bool, err error) {
	verb, arg := splitCommand(line)
	key := foldVerb(verb)
	switch key {
	case keyQUIT:
		return true, s.quit()
	case keyNOOP:
		return false, s.ok("")
	case keyUSER:
		return false, s.cmdUser(arg)
	case keyPASS:
		return false, s.cmdPass(arg)
	case keySTAT, keyLIST, keyUIDL, keyRETR, keyDELE, keyRSET:
		if !s.authed {
			return false, s.errr("log in first")
		}
	}
	switch key {
	case keySTAT:
		return false, s.cmdStat()
	case keyLIST:
		return false, s.cmdList(arg)
	case keyUIDL:
		return false, s.cmdUidl(arg)
	case keyRETR:
		return false, s.cmdRetr(arg)
	case keyDELE:
		return false, s.cmdDele(arg)
	case keyRSET:
		for i := range s.deleted {
			s.deleted[i] = false
		}
		return false, s.ok("reset")
	default:
		return false, s.errr("unknown command")
	}
}

func (s *session) cmdUser(arg []byte) error {
	if s.authed {
		return s.errr("already authenticated")
	}
	if len(arg) == 0 {
		return s.errr("USER requires a name")
	}
	// The name becomes part of a file path in the store. It is the one
	// argument a session keeps, so the one it copies.
	user := string(arg)
	if !mailstore.ValidMailbox(user) {
		return s.errr("invalid user name")
	}
	s.user = user
	return s.ok("user accepted, send PASS")
}

func (s *session) cmdPass(arg []byte) error {
	if s.authed {
		return s.errr("already authenticated")
	}
	if s.user == "" {
		return s.errr("send USER first")
	}
	if s.srv.cfg.Auth != nil && !s.srv.cfg.Auth(s.user, string(arg)) {
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

// message resolves a 1-based message number argument — decimal digits
// only — to its index in msgs, or says why it names no message.
func (s *session) message(arg []byte) (i int, problem string) {
	n := 0
	for _, d := range arg {
		if d < '0' || d > '9' || n > len(s.msgs) {
			return 0, "no such message"
		}
		n = n*10 + int(d-'0')
	}
	if n < 1 || n > len(s.msgs) {
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

func (s *session) cmdList(arg []byte) error {
	if len(arg) > 0 {
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

func (s *session) cmdUidl(arg []byte) error {
	if len(arg) > 0 {
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

// cmdRetr sends one mail. The store resolves it to a reader without
// reading it and holds no lock after that, so the size goes out first
// and the body follows in chunks of the Conn's pooled buffer. A failed
// read ends the session before the terminating dot: the client sees a
// cut connection, never a short body taken for a whole one.
func (s *session) cmdRetr(arg []byte) error {
	start := time.Now()
	i, problem := s.message(arg)
	if problem != "" {
		return s.errr(problem)
	}
	body, err := s.srv.cfg.Store.Body(s.user, s.msgs[i].ID)
	if err != nil {
		return s.errr("message unavailable")
	}
	s.body = body
	s.begin("+OK")
	s.num(int(s.body.Size()))
	s.str(" octets")
	if err := s.c.WriteLineLazy(s.line); err != nil {
		return err
	}
	// The SMTP dot codec is exactly POP3's multi-line response framing;
	// its first flush carries the status line too. The RETR is counted
	// before the flush that sends the dot.
	if err := s.c.StreamData(&s.body, s.body.Size(), s.armWrite); err != nil {
		return err
	}
	s.srv.retrieved.Inc()
	s.srv.retrSeconds.ObserveDuration(time.Since(start))
	return s.c.Flush()
}

// armWrite gives the next chunk of a response IdleTimeout to leave.
func (s *session) armWrite() error {
	if s.nc == nil {
		return nil
	}
	return s.nc.SetWriteDeadline(time.Now().Add(s.srv.cfg.IdleTimeout))
}

func (s *session) cmdDele(arg []byte) error {
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
