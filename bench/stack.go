package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/access"
	"repro/internal/addr"
	"repro/internal/bounce"
	"repro/internal/delivery"
	"repro/internal/director"
	"repro/internal/dns"
	"repro/internal/dnsbl"
	"repro/internal/eventlog"
	"repro/internal/fsim"
	"repro/internal/mailstore"
	"repro/internal/metrics"
	"repro/internal/mfs"
	"repro/internal/policy"
	"repro/internal/pop3"
	"repro/internal/queue"
	"repro/internal/smtpserver"
	"repro/internal/spool"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// The values below are cmd/smtpd's flag defaults in production mode
// (-arch hybrid -store mfs -mfs-sync). They are repeated here, and listed
// in README.md, so that drift from cmd/smtpd/main.go is visible until a
// shared fixture replaces this file.
const (
	domain       = "dept.example.edu"
	mailboxCount = 400
	smtpWorkers  = 100
	acceptShards = 1
	activeLimit  = 8
	maxAttempts  = 3
	spoolDir     = "queue"
	mfsDir       = "mfs"
	eventsCap    = 4096
	spanCap      = 65536
	dnsblZone    = "bl6.bench.example"
)

// stackConfig says what one server stack is made of.
type stackConfig struct {
	dir    string // "" keeps the files in memfds; else a directory, created here
	policy bool   // pre-trust policy engine + in-process DNSBL server
	listed []addr.IPv4
	pop3   bool
}

// stack is one full mail server as cmd/smtpd builds it: SMTP front end,
// queue manager over a synced spool, delivery agent, WAL'd MFS — with
// the harness's decorators between the layers.
type stack struct {
	device         fsim.FS
	spoolFS, mfsFS *meteredFS
	db             *access.DB
	store          *mailstore.MFS
	agent          *delivery.Agent
	qm             *queue.Manager
	srv            *smtpserver.Server
	reg            *metrics.Registry
	pol            *policy.ServerPolicy
	dnsblClient    *dnsbl.Client
	dnsSrv         *dns.Server
	pop            *pop3.Server

	smtpAddr, popAddr string
	served            chan error
}

func buildStack(cfg stackConfig, t *tracker) (*stack, error) {
	s := &stack{reg: metrics.NewRegistry()}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	if cfg.dir == "" {
		dev, err := newMemFS()
		if err != nil {
			return nil, err
		}
		s.device = dev
	} else {
		if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
			return nil, err
		}
		s.device = fsim.NewOS(cfg.dir)
	}
	s.spoolFS = newMeteredFS(s.device, &t.tracing)
	s.mfsFS = newMeteredFS(s.device, &t.tracing)

	s.reg.SetLabelValueLimit(64)
	spans := trace.NewSpanRecorder(spanCap)
	tel := telemetry.New()
	tel.Register(s.reg)
	// smtpd also echoes events at info level to stderr; the harness
	// leaves that sink out.
	events := eventlog.New(
		eventlog.WithLevel(eventlog.LevelInfo),
		eventlog.WithCapacity(eventsCap),
		eventlog.WithObserver(tel),
		eventlog.WithSampling("dnsbl.lookup", 16),
		eventlog.WithSampling("smtpd.policy", 16),
	)

	var err error
	s.store, err = mailstore.NewMFS(s.mfsFS, mfsDir, mfs.WithSync(true))
	if err != nil {
		return nil, err
	}
	store := &storeWrap{Store: s.store, t: t}

	s.db = access.NewDB(domain)
	if err := access.Populate(s.db, domain, mailboxCount); err != nil {
		return nil, err
	}
	if err := s.db.AddAlias("postmaster@"+domain, "user0000@"+domain); err != nil {
		return nil, err
	}

	s.agent = delivery.NewAgent(s.db, store, delivery.WithRegistry(s.reg), delivery.WithEventLog(events))
	s.qm, err = queue.NewManager(queue.Config{
		Deliverer:   &delivererWrap{inner: s.agent, t: t},
		Store:       spool.New(s.spoolFS, spoolDir),
		ActiveLimit: activeLimit,
		MaxAttempts: maxAttempts,
		Registry:    s.reg,
		Events:      events,
		Bounce:      bounce.New("mx." + domain).Synthesize,
	})
	if err != nil {
		return nil, err
	}

	srvOpts := []smtpserver.Option{
		smtpserver.WithHostname("mx." + domain),
		smtpserver.WithArchitecture(smtpserver.Hybrid),
		smtpserver.WithMaxWorkers(smtpWorkers),
		smtpserver.WithAcceptShards(acceptShards),
		smtpserver.WithValidateRcpt(s.db.Valid),
		smtpserver.WithValidateRcptBytes(s.db.ValidBytes),
		smtpserver.WithRegistry(s.reg),
		smtpserver.WithSpans(spans),
		smtpserver.WithEventLog(events),
	}
	if cfg.policy {
		list := dnsbl.NewList(dnsblZone)
		for _, ip := range cfg.listed {
			list.Add(ip, dnsbl.CodeZombie)
		}
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		s.dnsSrv = dns.NewServer(pc, &dnsbl.V6Handler{List: list})
		s.dnsblClient = dnsbl.New(dnsblZone,
			dnsbl.WithRegistry(s.reg),
			dnsbl.WithEventLog(events),
			dnsbl.WithUpstreams(s.dnsSrv.Addr().String()),
			dnsbl.WithHedge(20*time.Millisecond),
			dnsbl.WithStale(time.Hour),
			dnsbl.WithNegativeTTL(5*time.Second),
			dnsbl.WithPolicy(dnsbl.CachePrefix))
		// Reputation and a hard DNSBL reject; smtpd's per-IP rate limit
		// and greylist stay off, as the issue specifies: the generator
		// never retries, so they would measure the generator.
		eng := policy.New(policy.WithReputation(policy.ReputationConfig{}), policy.WithDNSBLReject(1))
		scorer := policy.NewScorer(
			policy.WithLists(policy.List{Name: dnsblZone, Resolver: s.dnsblClient, Weight: 1}),
			policy.WithThreshold(1),
			policy.WithScorerRegistry(s.reg))
		s.pol = policy.NewServerPolicy(eng, scorer, policy.WithRegistry(s.reg), policy.WithEventLog(events))
		srvOpts = append(srvOpts, smtpserver.WithPolicy(s.pol))
	}
	s.srv, err = smtpserver.New(t.enqueueWrap(s.qm.Enqueue), srvOpts...)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.smtpAddr = ln.Addr().String()
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()

	if cfg.pop3 {
		s.pop, err = pop3.New(pop3.Config{Store: store, Hostname: "pop." + domain})
		if err != nil {
			return nil, err
		}
		pln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		s.popAddr = pln.Addr().String()
		go s.pop.Serve(pln) //nolint:errcheck // returns on Close, which waits for it
	}
	ok = true
	return s, nil
}

// close stops every goroutine the stack started and waits for them.
func (s *stack) close() {
	if s.pop != nil {
		s.pop.Close()
	}
	if s.srv != nil {
		s.srv.Close()
		if s.served != nil {
			<-s.served
		}
	}
	if s.qm != nil {
		s.qm.Close()
	}
	if s.store != nil {
		s.store.Close()
	}
	if s.dnsblClient != nil {
		s.dnsblClient.Close()
	}
	if s.dnsSrv != nil {
		s.dnsSrv.Close()
	}
	if dev, ok := s.device.(*memFS); ok {
		dev.close()
	}
}

// world is what one workload runs against: one stack, or a director in
// front of two.
type world struct {
	stacks    []*stack
	dir       *director.Server
	dirLn     net.Listener
	dirServed chan struct{}
	smtpAddr  string // where the generator connects
}

func (w *world) close() {
	if w.dir != nil {
		w.dir.Close()
		// Close reaches the listener only once Serve has stored it; a
		// world torn down right after set-up can get there first.
		w.dirLn.Close()
		<-w.dirServed
	}
	for _, s := range w.stacks {
		s.close()
	}
}

// buildWorld builds the servers of one workload — their files in memfds,
// or under dir when one is given — and fills the mailboxes the workload
// expects to find.
func buildWorld(in *inputs, dir string, t *tracker) (*world, error) {
	w := &world{}
	names := []string{"mx"}
	if in.director {
		names = []string{"shard-a", "shard-b"}
	}
	for _, name := range names {
		cfg := stackConfig{policy: in.policy, listed: in.listed, pop3: in.pop3}
		if dir != "" {
			cfg.dir = filepath.Join(dir, name)
		}
		s, err := buildStack(cfg, t)
		if err != nil {
			w.close()
			return nil, fmt.Errorf("stack %s: %w", name, err)
		}
		w.stacks = append(w.stacks, s)
	}
	w.smtpAddr = w.stacks[0].smtpAddr
	if in.director {
		// cmd/maildirector with -policy=false: the workload isolates the
		// hop, and the director's per-IP rate limit would refuse a
		// two-connection generator.
		d, err := director.New(
			director.WithBackend(names[0], w.stacks[0].smtpAddr),
			director.WithBackend(names[1], w.stacks[1].smtpAddr),
			director.WithValidateRcpt(w.stacks[0].db.Valid),
		)
		if err != nil {
			w.close()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			w.close()
			return nil, err
		}
		w.dir, w.dirLn, w.smtpAddr, w.dirServed = d, ln, ln.Addr().String(), make(chan struct{})
		go func() { defer close(w.dirServed); d.Serve(ln) }()
	}
	for k := 0; k < in.prefillMails; k++ {
		boxes, body := in.prefill(k)
		if err := w.stacks[0].store.Deliver(prefillID(k), boxes, body); err != nil {
			w.close()
			return nil, fmt.Errorf("prefill: %w", err)
		}
	}
	return w, nil
}
