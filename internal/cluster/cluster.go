// Package cluster is the one way to stand up a mail node. It owns the
// assembly policy no caller should have to know:
//
//   - construction order: access DB → boot epoch → store (whose
//     write-ahead log is replayed inside mailstore.NewMFS) → delivery
//     agent → front end → listener, so a node never accepts a connection
//     before everything behind the 250 is ready;
//   - one path from DATA to the reply (Shard.Enqueue): the reply follows
//     the mail's commit to its mailboxes, and a mail the store refuses
//     stays with its sender, whose own queue retries it;
//   - the cmd/smtpd production defaults, as the constants below;
//   - the pre-trust stack a PolicySpec describes, and a director's gossip
//     over its stores (pretrust.go);
//   - two teardown verbs with one order — stop the front end, which waits
//     for every in-flight commit, then close the store and the pre-trust
//     stack. Close reports the first error; Kill swallows errors.
//
// StartShard builds a full node and StartDirector a director front end,
// with one listen and stop discipline. cmd/smtpd, cmd/maildirector, every
// real-TCP experiment in internal/core, the examples and the integration
// tests all stand their nodes up here.
package cluster

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/access"
	"repro/internal/costmodel"
	"repro/internal/delivery"
	"repro/internal/director"
	"repro/internal/eventlog"
	"repro/internal/fsim"
	"repro/internal/mailstore"
	"repro/internal/metrics"
	"repro/internal/mfs"
	"repro/internal/smtp"
	"repro/internal/smtpserver"
	"repro/internal/trace"
)

// The production defaults: cmd/smtpd's flag defaults (it reads them from
// here), and the values nothing sets differently. The architecture
// (hybrid) and the accept-shard count (1) are the front end's own
// defaults.
const (
	DefaultDomain    = "dept.example.edu"
	DefaultMailboxes = 400   // user0000 … user0399, plus the postmaster alias
	MFSDir           = "mfs" // the mailbox store, every commit batch write-ahead logged
	Workers          = 100   // smtpd worker limit, the paper's process limit

	// idDir holds the boot-epoch record and nothing else: it is where a
	// spooling node kept its spool and epochs, so ids continue its sequence.
	idDir   = "queue"
	seqBits = 40 // a mail id's count of mails; the boot epoch is above it

	loopback = "127.0.0.1:0"
)

// Hostname is a node's banner and HELO name.
func Hostname(domain string) string { return "mx." + domain }

// ShardSpec describes one full mail node. The zero value is cmd/smtpd's
// production mode on a fresh in-memory filesystem, listening on an
// ephemeral loopback port.
type ShardSpec struct {
	// Addr is the SMTP listen address (default an ephemeral loopback port).
	Addr string
	// FS holds the mailboxes (default a zero-cost fsim.Mem). Restarting
	// on the FS a killed shard used recovers its store.
	FS fsim.FS
	// Domain is the local domain; the node calls itself Hostname(Domain).
	Domain string
	// Mailboxes is how many local users (user0000…) exist; postmaster
	// aliases the first.
	Mailboxes int
	// Policy is the pre-trust stack the front end consults.
	Policy PolicySpec
	// Options are appended to the front end's own (hostname, Workers,
	// recipient validation, enqueue hook, policy and the sinks below), so
	// they can choose the architecture, worker limit and the rest.
	Options []smtpserver.Option

	// Registry, Events and Tracer are shared by every part of the node;
	// nil leaves each its private default.
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
	Server *smtpserver.Server
	preTrust

	tracer *trace.MessageRecorder
	seq    atomic.Uint64 // the last mail id minted: boot epoch << seqBits | count
	front  *frontEnd
	once   sync.Once
	err    error
}

// StartShard builds the node spec describes; it is listening on return.
// A failure part-way tears down what was built: no listener, goroutine
// or open store is left behind. It refuses to start on an FS holding
// anything but epoch records under the id directory: mail a spooling
// node left there would otherwise never be delivered, with nobody told.
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

	s := &Shard{tracer: spec.Tracer}
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

	if err := s.beginEpoch(spec.FS); err != nil {
		return nil, err
	}
	// NewMFS replays the write-ahead log a previous store left. The store
	// is write-ahead logged because it holds a mail's only copy from the
	// 250 on.
	var err error
	if s.Store, err = mailstore.NewMFS(spec.FS, MFSDir, mfs.WithSync(true)); err != nil {
		return nil, err
	}
	if spec.Registry != nil {
		exportStoreStats(spec.Registry, s.Store.Store())
	}

	s.Agent = delivery.NewAgent(s.DB, s.Store, delivery.WithRegistry(spec.Registry),
		delivery.WithEventLog(spec.Events), delivery.WithMessageTracer(spec.Tracer))

	s.preTrust = startPreTrust(spec.Policy, spec.Registry, spec.Events)
	opts := []smtpserver.Option{
		smtpserver.WithHostname(Hostname(spec.Domain)),
		smtpserver.WithMaxWorkers(Workers),
		smtpserver.WithRegistry(spec.Registry),
		smtpserver.WithEventLog(spec.Events),
		smtpserver.WithMessageTracer(spec.Tracer),
		smtpserver.WithEnqueueTraced(s.Enqueue),
		smtpserver.WithValidateRcpt(s.DB.Valid),
		smtpserver.WithValidateRcptBytes(s.DB.ValidBytes),
		smtpserver.WithPolicy(s.Policy),
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

// beginEpoch claims the node's boot epoch, after checking that the id
// directory holds epoch records and nothing else.
func (s *Shard) beginEpoch(fs fsim.FS) error {
	epochs := idDir + "/epoch"
	for _, name := range fs.List(idDir + "/") {
		if !strings.HasPrefix(name, epochs+"/") {
			return fmt.Errorf("cluster: %s is not an epoch record: move the mail a spooling node left out of %s/ before starting", name, idDir)
		}
	}
	epoch, err := fsim.BeginEpoch(fs, epochs, 0)
	if err == nil && epoch >= 1<<(64-seqBits) {
		err = fmt.Errorf("boot epoch %d does not fit a mail id", epoch)
	}
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	s.seq.Store(epoch << seqBits)
	return nil
}

// Enqueue is the front end's enqueue hook: it mints the mail's id and
// returns it once the mail is committed to its mailboxes, under a
// delivery span parented by tc. A refusal is an smtp.ReplyError — 452 for
// a full disk, 451 for a stopped or closed store — that the sender
// retries under a fresh id.
func (s *Shard) Enqueue(sender string, rcpts []string, data []byte, tc trace.Context) (string, error) {
	id := mailID(s.seq.Add(1))
	start, dsp := time.Now(), s.tracer.NewSpan(tc) // no tracer, no span: the agent has none either
	err := s.Agent.Commit(id, rcpts, data, dsp)
	s.tracer.FinishAt(dsp, trace.MStageDelivery, start, time.Now(), "")
	switch {
	case err == nil:
		return id, nil
	case errors.Is(err, syscall.ENOSPC):
		return "", smtp.ReplyError(smtp.ReplyInsufficient)
	default:
		return "", smtp.ReplyError{Code: 451, Text: "Requested action aborted: local error in processing"}
	}
}

// mailID formats a mail id: "Q" and 16 hex digits.
func mailID(seq uint64) string {
	id := [17]byte{'Q'}
	for i, v := 16, seq; i > 0; i, v = i-1, v>>4 {
		id[i] = "0123456789ABCDEF"[v&0xf]
	}
	return string(id[:])
}

// exportStoreStats puts the store on the node's registry: its group
// commits, the log rotations behind them, and the shared store's
// footprint — live single copies and the mailbox pointers they serve,
// the §6 saving.
func exportStoreStats(reg *metrics.Registry, st *mfs.Store) {
	for name, value := range map[string]func() float64{
		"mfs_commit_batches_total":     func() float64 { return float64(st.CommitStats().Batches) },
		"mfs_commit_mails_total":       func() float64 { return float64(st.CommitStats().Mails) },
		"mfs_wal_rotations_total":      func() float64 { return float64(st.CommitStats().Rotations) },
		"mfs_wal_rotation_syncs_total": func() float64 { return float64(st.CommitStats().RotationSyncs) },
		"mfs_wal_rotation_seconds":     func() float64 { return st.CommitStats().LastRotation.Seconds() },
		"mfs_shared_records":           func() float64 { return float64(st.Stats().SharedRecords) },
		"mfs_shared_refs":              func() float64 { return float64(st.Stats().SharedRefs) },
	} {
		reg.GaugeFunc(name, value)
	}
}

// Served receives the accept loop's error once if it ends on its own,
// and is closed when the loop has ended for whatever reason.
func (s *Shard) Served() <-chan error { return s.front.served }

// Close shuts the node down in order: stop accepting and wait for Serve
// and every worker to return — so for every commit in flight — then
// close the store and the DNSBL client. It returns the first error;
// calling it again, or after Kill, does nothing and returns the same.
func (s *Shard) Close() error {
	s.once.Do(func() { s.err = s.teardown() })
	return s.err
}

// Kill is Close with errors swallowed. After fsim.Fault.Crash it is how
// a dead process's goroutines are collected before a restart on the
// same FS.
func (s *Shard) Kill() {
	s.once.Do(func() { s.teardown() }) //nolint:errcheck // a kill has no one to report to
}

func (s *Shard) teardown() error {
	var err error
	if s.front != nil {
		err = s.front.stop()
	}
	if s.Store != nil {
		if cerr := s.Store.Close(); err == nil {
			err = cerr
		}
	}
	s.preTrust.close()
	return err
}

// frontEnd is an smtpserver.Server with its accept loop running.
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
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen %s: %w", addr, err)
	}
	f := &frontEnd{srv: srv, addr: ln.Addr().String(), served: make(chan error, 1)}
	go func() {
		if err := srv.Serve(ln); err != nil {
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

// DirectorSpec describes one director front end.
type DirectorSpec struct {
	// Addr is the SMTP listen address (default an ephemeral loopback port).
	Addr string
	// Policy is the pre-trust stack the front end consults, and Gossip
	// the endpoint that replicates its stores.
	Policy PolicySpec
	Gossip GossipSpec
	// Options configure the director: its backends, and whatever else.
	Options []director.Option
	// Registry and Events are shared by every part of the node; nil
	// leaves each its private default.
	Registry *metrics.Registry
	Events   *eventlog.Log
}

// Director is a running director front end. Its front end is listened
// on and served, and stopped, the way a shard's is.
type Director struct {
	Addr   string // the SMTP address it listens on
	Server *director.Server
	preTrust
	// Gossip replicates the pre-trust stores with the peers, answering on
	// GossipAddr; nil when the spec gives no gossip address.
	Gossip     *director.Gossip
	GossipAddr string

	front *frontEnd
	once  sync.Once
	err   error
}

// StartDirector builds the director — pre-trust stack, forwarding
// engine, gossip endpoint, front end — and has it listening on return.
// A failure part-way tears down what was built.
func StartDirector(spec DirectorSpec) (_ *Director, err error) {
	d := &Director{preTrust: startPreTrust(spec.Policy, spec.Registry, spec.Events)}
	defer func() {
		if err != nil {
			d.Close()
		}
	}()

	front := director.WithFront(smtpserver.WithRegistry(spec.Registry),
		smtpserver.WithEventLog(spec.Events), smtpserver.WithPolicy(d.Policy))
	if d.Server, err = director.New(append([]director.Option{front}, spec.Options...)...); err != nil {
		return nil, err
	}
	if spec.Gossip.Addr != "" {
		if d.Gossip, d.GossipAddr, err = startGossip(spec.Gossip, d.Server.Front().Hostname(), d.preTrust, spec.Events); err != nil {
			return nil, err
		}
	}
	if d.front, err = listen(d.Server.Front(), spec.Addr); err != nil {
		return nil, err
	}
	d.Addr = d.front.addr
	return d, nil
}

// Served receives the accept loop's error once if it ends on its own,
// and is closed when the loop has ended for whatever reason.
func (d *Director) Served() <-chan error { return d.front.served }

// Close stops accepting, waits for in-flight dialogs and for Serve to
// return, QUITs the back-end connection pools, then stops the gossip
// and closes the DNSBL client. It returns Serve's error; calling it
// again does nothing and returns the same result.
func (d *Director) Close() error {
	d.once.Do(func() {
		if d.front != nil {
			d.err = d.front.stop()
		}
		if d.Server != nil {
			d.Server.Close()
		}
		if d.Gossip != nil {
			d.Gossip.Close()
		}
		d.preTrust.close()
	})
	return d.err
}
