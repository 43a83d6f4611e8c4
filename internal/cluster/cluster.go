// Package cluster is the one way to stand up a mail node. It owns the
// assembly policy no caller should have to know:
//
//   - construction order: access DB → store → delivery agent → spool →
//     queue (whose recovery of a previous manager's spool finishes inside
//     queue.NewManager) → front end → listener, so a node never accepts a
//     connection before everything behind the 250 is ready;
//   - the cmd/smtpd production defaults, as the constants below;
//   - two teardown verbs with one order — stop accepting, wait for Serve
//     to return, stop the queue, close the store. Close drains the queue
//     first and reports the first error; Kill does not drain and swallows
//     errors, which is what a process dying looks like from inside.
//
// StartShard builds a full node, StartDirector a director front end, and
// Serve runs a bare front end (an experiment's sink or remote site) with
// the same listen and stop discipline. cmd/smtpd, cmd/maildirector, the
// real-TCP experiments in internal/core, the examples and the integration
// tests all stand their nodes up here.
package cluster

import (
	"net"
	"sync"
	"time"

	"repro/internal/access"
	"repro/internal/bounce"
	"repro/internal/costmodel"
	"repro/internal/delivery"
	"repro/internal/director"
	"repro/internal/eventlog"
	"repro/internal/fsim"
	"repro/internal/mailstore"
	"repro/internal/metrics"
	"repro/internal/mfs"
	"repro/internal/queue"
	"repro/internal/smtpserver"
	"repro/internal/spool"
	"repro/internal/trace"
)

// The production defaults: cmd/smtpd's flag defaults (it reads them from
// here), and the values nothing sets differently. The architecture
// (hybrid) and the accept-shard count (1) are the front end's own
// defaults.
const (
	DefaultDomain    = "dept.example.edu"
	DefaultMailboxes = 400 // user0000 … user0399, plus the postmaster alias
	DefaultSpoolDir  = "queue"
	MFSDir           = "mfs" // the mailbox store, every commit batch write-ahead logged
	Workers          = 100   // smtpd worker limit, the paper's process limit
	ActiveLimit      = 8     // delivery workers per node, for spooled mail
	MaxAttempts      = 3     // delivery attempts before a mail bounces
	// DrainTimeout bounds how long Close waits for the queue to go idle.
	DrainTimeout = 5 * time.Second

	loopback = "127.0.0.1:0"
)

// Hostname is a node's banner, HELO and DSN reporting-MTA name.
func Hostname(domain string) string { return "mx." + domain }

// ShardSpec describes one full mail node. The zero value is cmd/smtpd's
// production mode on a fresh in-memory filesystem, listening on an
// ephemeral loopback port.
type ShardSpec struct {
	// Addr is the SMTP listen address (default an ephemeral loopback port).
	Addr string
	// FS holds the spool and the mailboxes (default a zero-cost fsim.Mem).
	// Restarting on the FS a killed shard used recovers its spool and store.
	FS fsim.FS
	// Domain is the local domain; the node calls itself Hostname(Domain).
	Domain string
	// Mailboxes is how many local users (user0000…) exist; postmaster
	// aliases the first.
	Mailboxes int
	// SpoolDir is the spool directory on FS.
	SpoolDir string
	// Deliverer, if set, replaces the local delivery agent as the queue's
	// deliverer; it is handed the agent so it can wrap it.
	Deliverer func(local *delivery.Agent) queue.Deliverer
	// Queue carries the queue's retry, limit and bounce settings. Its
	// Deliverer, Store, Registry, Events and Tracer are the shard's,
	// ActiveLimit and MaxAttempts default to this package's constants, and
	// Bounce to DSNs reported by Hostname(Domain).
	Queue queue.Config
	// Options are appended to the front end's own (hostname, Workers,
	// recipient validation, enqueue hook and the three sinks below), so
	// they can choose the architecture, worker limit, policy and the rest.
	Options []smtpserver.Option

	// Registry, Events and Tracer are shared by the front end, the queue
	// and the delivery agent; nil leaves each its private default.
	Registry *metrics.Registry
	Events   *eventlog.Log
	Tracer   *trace.MessageRecorder
}

// Shard is a running mail node.
type Shard struct {
	Addr   string // the SMTP address it listens on
	DB     *access.DB
	Store  *mailstore.MFS
	Agent  *delivery.Agent
	Queue  *queue.Manager
	Server *smtpserver.Server

	front *frontEnd
	once  sync.Once
	err   error
}

// StartShard builds the node spec describes; it is listening on return.
// A failure part-way tears down what was built: no listener, goroutine
// or open store is left behind.
func StartShard(spec ShardSpec) (*Shard, error) {
	if spec.FS == nil {
		spec.FS = fsim.NewMem(costmodel.FSModel{})
	}
	if spec.Domain == "" {
		spec.Domain = DefaultDomain
	}
	if spec.Mailboxes == 0 {
		spec.Mailboxes = DefaultMailboxes
	}
	if spec.SpoolDir == "" {
		spec.SpoolDir = DefaultSpoolDir
	}

	s := &Shard{}
	started := false
	defer func() {
		if !started {
			s.Kill()
		}
	}()

	s.DB = access.NewDB(spec.Domain)
	if err := access.Populate(s.DB, spec.Domain, spec.Mailboxes); err != nil {
		return nil, err
	}
	if err := s.DB.AddAlias("postmaster@"+spec.Domain, "user0000@"+spec.Domain); err != nil {
		return nil, err
	}

	// NewMFS replays the write-ahead log a previous store left. The store
	// is write-ahead logged because a delivered mail's only copy is in
	// it: the queue delivers a healthy node's mail before the 250 without
	// spooling it, and unlinks a spooled copy once the store says
	// delivered.
	var err error
	if s.Store, err = mailstore.NewMFS(spec.FS, MFSDir, mfs.WithSync(true)); err != nil {
		return nil, err
	}
	if spec.Registry != nil {
		exportCommitStats(spec.Registry, s.Store.Store())
	}

	s.Agent = delivery.NewAgent(s.DB, s.Store, delivery.WithRegistry(spec.Registry),
		delivery.WithEventLog(spec.Events), delivery.WithMessageTracer(spec.Tracer))

	qcfg := spec.Queue
	qcfg.Deliverer = s.Agent
	if spec.Deliverer != nil {
		qcfg.Deliverer = spec.Deliverer(s.Agent)
	}
	qcfg.Store = spool.New(spec.FS, spec.SpoolDir)
	if qcfg.ActiveLimit == 0 {
		qcfg.ActiveLimit = ActiveLimit
	}
	if qcfg.MaxAttempts == 0 {
		qcfg.MaxAttempts = MaxAttempts
	}
	if qcfg.Bounce == nil {
		qcfg.Bounce = bounce.New(Hostname(spec.Domain)).Synthesize
	}
	qcfg.Registry, qcfg.Events, qcfg.Tracer = spec.Registry, spec.Events, spec.Tracer
	// NewManager returns with the previous manager's spool recovered.
	if s.Queue, err = queue.NewManager(qcfg); err != nil {
		return nil, err
	}

	opts := []smtpserver.Option{
		smtpserver.WithHostname(Hostname(spec.Domain)),
		smtpserver.WithMaxWorkers(Workers),
		smtpserver.WithRegistry(spec.Registry),
		smtpserver.WithEventLog(spec.Events),
		smtpserver.WithMessageTracer(spec.Tracer),
		smtpserver.WithEnqueueTraced(s.Queue.EnqueueTraced),
		smtpserver.WithValidateRcpt(s.DB.Valid),
		smtpserver.WithValidateRcptBytes(s.DB.ValidBytes),
	}
	if s.Server, err = smtpserver.New(nil, append(opts, spec.Options...)...); err != nil {
		return nil, err
	}
	if s.front, err = listen(s.Server, spec.Addr); err != nil {
		return nil, err
	}
	s.Addr = s.front.addr
	started = true
	return s, nil
}

// exportCommitStats puts the store's commit engine on the node's
// registry: its group commits and the log rotations behind them.
func exportCommitStats(reg *metrics.Registry, st *mfs.Store) {
	for name, value := range map[string]func(mfs.CommitStats) float64{
		"mfs_commit_batches_total":     func(c mfs.CommitStats) float64 { return float64(c.Batches) },
		"mfs_commit_mails_total":       func(c mfs.CommitStats) float64 { return float64(c.Mails) },
		"mfs_wal_rotations_total":      func(c mfs.CommitStats) float64 { return float64(c.Rotations) },
		"mfs_wal_rotation_syncs_total": func(c mfs.CommitStats) float64 { return float64(c.RotationSyncs) },
		"mfs_wal_rotation_seconds":     func(c mfs.CommitStats) float64 { return c.LastRotation.Seconds() },
	} {
		reg.GaugeFunc(name, func() float64 { return value(st.CommitStats()) })
	}
}

// Served receives the accept loop's error once if it ends on its own,
// and is closed when the loop has ended for whatever reason.
func (s *Shard) Served() <-chan error { return s.front.served }

// Close shuts the node down in order: stop accepting and wait for Serve
// to return, let the queue drain (at most DrainTimeout) and close it,
// close the store. Every mail acknowledged before Close is delivered
// before the store closes, or stays spooled for the next start. It
// returns the first error; calling it again, or after Kill, does nothing
// and returns the same result.
func (s *Shard) Close() error {
	s.once.Do(func() { s.err = s.teardown(true) })
	return s.err
}

// Kill is Close without the drain and with errors swallowed: what is not
// yet delivered stays in the spool. After fsim.Fault.Crash it is how a
// dead process's goroutines are collected before a restart on the same FS.
func (s *Shard) Kill() {
	s.once.Do(func() { s.teardown(false) }) //nolint:errcheck // a kill has no one to report to
}

func (s *Shard) teardown(drain bool) error {
	var first error
	keep := func(err error) {
		if first == nil {
			first = err
		}
	}
	if s.front != nil {
		keep(s.front.stop())
	}
	if s.Queue != nil {
		if drain {
			s.Queue.WaitIdle(DrainTimeout)
		}
		keep(s.Queue.Close())
	}
	if s.Store != nil {
		keep(s.Store.Close())
	}
	return first
}

// frontEnd is an smtpserver.Server with its accept loops running.
type frontEnd struct {
	srv    *smtpserver.Server
	addr   string
	served chan error // Serve's error if any, then closed
}

// listen binds addr (default an ephemeral loopback port) and serves srv
// on it in the background.
func listen(srv *smtpserver.Server, addr string) (*frontEnd, error) {
	if addr == "" {
		addr = loopback
	}
	lns, err := srv.Listen(addr)
	if err != nil {
		return nil, err
	}
	f := &frontEnd{srv: srv, addr: lns[0].Addr().String(), served: make(chan error, 1)}
	go func() {
		if err := srv.ServeListeners(lns); err != nil {
			f.served <- err
		}
		close(f.served)
	}()
	return f, nil
}

// stop closes the server and waits for Serve to return. It is safe to
// call more than once.
func (f *frontEnd) stop() error {
	f.srv.Close() //nolint:errcheck // "already closed" on a second stop
	return <-f.served
}

// Serve runs a bare front end — an experiment's sink, a remote site —
// on an ephemeral loopback port. stop closes it and waits for its accept
// loop to end; it may be called more than once.
func Serve(srv *smtpserver.Server) (addr string, stop func(), err error) {
	f, err := listen(srv, "")
	if err != nil {
		return "", nil, err
	}
	return f.addr, func() { f.stop() }, nil //nolint:errcheck // a sink's accept error has no reader
}

// DirectorSpec describes one director front end.
type DirectorSpec struct {
	// Addr is the SMTP listen address (default an ephemeral loopback port).
	Addr string
	// Options configure the director: its backends, and whatever else.
	Options []director.Option
}

// Director is a running director front end.
type Director struct {
	Addr   string // the SMTP address it listens on
	Server *director.Server

	served chan struct{}
}

// StartDirector builds the director and has it listening on return.
func StartDirector(spec DirectorSpec) (*Director, error) {
	if spec.Addr == "" {
		spec.Addr = loopback
	}
	srv, err := director.New(spec.Options...)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", spec.Addr)
	if err != nil {
		return nil, err
	}
	d := &Director{Addr: ln.Addr().String(), Server: srv, served: make(chan struct{})}
	go func() {
		defer close(d.served)
		srv.Serve(ln)
	}()
	return d, nil
}

// Close stops accepting, waits for in-flight dialogs and for Serve to
// return, and drains the back-end connection pools. It is idempotent.
func (d *Director) Close() {
	d.Server.Close()
	<-d.served
}
