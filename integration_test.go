package repro

// Full-stack integration tests: the complete composition a deployment
// would run — hybrid SMTP server over TCP, the delivery agent committing
// each mail through MFS on real files before its 250, and a live DNSBLv6
// server over UDP feeding the connect-time check — driven by the
// synthetic workloads.

import (
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/dns"
	"repro/internal/dnsbl"
	"repro/internal/fsim"
	"repro/internal/mailstore"
	"repro/internal/policy"
	"repro/internal/smtp"
	"repro/internal/smtpserver"
	"repro/internal/trace"
	"repro/internal/workload"
)

// stack is one fully wired mail server: a cluster.Shard on real files.
type stack struct {
	*cluster.Shard
	fs fsim.FS
}

func startStack(t *testing.T, arch smtpserver.Architecture, opts ...smtpserver.Option) *stack {
	t.Helper()
	s := &stack{fs: fsim.NewOS(t.TempDir())}
	var err error
	s.Shard, err = cluster.StartShard(cluster.ShardSpec{
		FS: s.fs,
		Options: append([]smtpserver.Option{
			smtpserver.WithArchitecture(arch),
			smtpserver.WithMaxWorkers(16),
			smtpserver.WithIdleTimeout(10 * time.Second),
		}, opts...),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestFullStackUnivWorkload(t *testing.T) {
	for _, arch := range []smtpserver.Architecture{smtpserver.Vanilla, smtpserver.Hybrid} {
		t.Run(arch.String(), func(t *testing.T) {
			s := startStack(t, arch)
			conns := trace.NewUniv(trace.UnivConfig{Seed: 21, Connections: 400}).Generate()
			want := trace.Summarize(conns)

			res := workload.RunClosed(workload.ClosedConfig{
				Addr: s.Addr, Concurrency: 12, Timeout: 10 * time.Second,
			}, conns)
			if res.Errors != 0 {
				t.Fatalf("replay errors: %+v", res)
			}
			if res.GoodMails != int64(want.Delivering) {
				t.Fatalf("good mails = %d, trace delivering = %d", res.GoodMails, want.Delivering)
			}
			if res.BounceConns != int64(want.Bounces) || res.Unfinished != int64(want.Unfinished) {
				t.Fatalf("bounce/unfinished mismatch: %+v vs %+v", res, want)
			}

			// Every valid recipient copy landed in a mailbox.
			ds := s.Agent.Stats()
			if ds.Mails != int64(want.Delivering) {
				t.Fatalf("delivered mails = %d, want %d", ds.Mails, want.Delivering)
			}

			// Nothing but the epoch record is kept outside the store.
			if kept := s.fs.List("queue/"); len(kept) != 1 {
				t.Fatalf("outside the store: %v", kept)
			}

			// Hybrid never delegates bounce-only or unfinished connections.
			st := s.Server.Stats()
			if arch == smtpserver.Hybrid {
				if st.Handoffs != int64(want.Delivering) {
					t.Fatalf("handoffs = %d, want %d", st.Handoffs, want.Delivering)
				}
			}
		})
	}
}

func TestFullStackMailboxContentsExact(t *testing.T) {
	s := startStack(t, smtpserver.Hybrid)
	client, err := smtp.Dial(s.Addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Helo("test.client"); err != nil {
		t.Fatal(err)
	}
	body := "Subject: exact\r\n\r\nline one\r\n.dot-stuffed line\r\nlast\r\n"
	n, err := client.Send("sender@remote.example",
		[]string{"user0001@dept.example.edu", "user0002@dept.example.edu"}, []byte(body))
	if err != nil || n != 2 {
		t.Fatalf("send = %d, %v", n, err)
	}
	client.Quit()
	for _, box := range []string{"user0001", "user0002"} {
		ids, err := s.Store.List(box)
		if err != nil || len(ids) != 1 {
			t.Fatalf("%s: list = %v, %v", box, ids, err)
		}
		got, err := s.Store.Read(box, ids[0])
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != body {
			t.Fatalf("%s: body = %q, want %q", box, got, body)
		}
	}
	// Single copy on disk: the MFS shared store holds exactly one record.
	if st := s.Store.Store().Stats(); st.SharedRecords != 1 || st.SharedRefs != 2 {
		t.Fatalf("MFS stats = %+v", st)
	}
}

func TestFullStackWithLiveDNSBL(t *testing.T) {
	// A real DNSBLv6 server over UDP; the SMTP server rejects listed
	// clients at accept time. Loopback clients are judged by their
	// connecting IP (127.0.0.1), so the test controls listing by adding
	// or removing that address.
	const zone = "bl6.test.example"
	list := dnsbl.NewList(zone)
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dnsSrv := dns.NewServer(pc, &dnsbl.V6Handler{List: list})
	defer dnsSrv.Close()

	// The client's clock jumps a cache TTL ahead each time the listing
	// changes, so the cached verdict has expired by the next connection.
	var skew atomic.Int64
	expire := func() { skew.Add(int64(costmodel.DNSBLCacheTTL + time.Second)) }
	lookup := dnsbl.New(zone,
		dnsbl.WithUpstreams(dnsSrv.Addr().String()),
		dnsbl.WithClock(func() time.Time { return time.Now().Add(time.Duration(skew.Load())) }))
	defer lookup.Close()
	// What `smtpd -dnsbl` runs without -policy: the blacklist and nothing else.
	s := startStack(t, smtpserver.Hybrid, smtpserver.WithPolicy(policy.NewServerPolicy(
		policy.New(policy.WithDNSBLReject(1)),
		policy.NewScorer(policy.WithLists(policy.List{Name: zone, Resolver: lookup, Weight: 1})))))

	send := func() error {
		client, err := smtp.Dial(s.Addr, 5*time.Second)
		if err != nil {
			return err
		}
		defer client.Abort()
		if err := client.Helo("h"); err != nil {
			return err
		}
		if _, err := client.Send("s@r.example",
			[]string{"user0003@dept.example.edu"}, []byte("m")); err != nil {
			return err
		}
		return client.Quit()
	}

	// Clean client: accepted.
	if err := send(); err != nil {
		t.Fatalf("clean client rejected: %v", err)
	}
	// Blacklist 127.0.0.1 and expire the cached answer: rejected with 554.
	list.Add(addr.MustParseIPv4("127.0.0.1"), dnsbl.CodeZombie)
	expire()
	err = send()
	if err == nil || !strings.Contains(err.Error(), "554") {
		t.Fatalf("listed client err = %v, want 554 banner", err)
	}
	if n := s.Server.Stats().PolicyRejected; n != 1 {
		t.Fatalf("policy-rejected count = %d", n)
	}
	// Delist and expire the cached answer: accepted again.
	list.Remove(addr.MustParseIPv4("127.0.0.1"))
	expire()
	if err := send(); err != nil {
		t.Fatalf("delisted client rejected: %v", err)
	}
	if dnsSrv.Queries() == 0 {
		t.Fatal("DNSBL server never queried")
	}
}

func TestFullStackPersistenceAcrossRestart(t *testing.T) {
	// Mail delivered before a shutdown must be readable by a fresh stack
	// over the same directory (MFS on-disk durability end to end).
	dir := t.TempDir()
	fs := fsim.NewOS(dir)
	deliverOnce := func(id string) {
		store, err := mailstore.NewMFS(fs, "mfs")
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		if err := store.Deliver(id, []string{"alice", "bob"}, []byte("persist "+id)); err != nil {
			t.Fatal(err)
		}
	}
	deliverOnce("Q1")
	deliverOnce("Q2") // a second "process lifetime" appends to the same files

	store, err := mailstore.NewMFS(fs, "mfs")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for _, box := range []string{"alice", "bob"} {
		ids, err := store.List(box)
		if err != nil || len(ids) != 2 {
			t.Fatalf("%s after restart: %v, %v", box, ids, err)
		}
		got, err := store.Read(box, "Q2")
		if err != nil || string(got) != "persist Q2" {
			t.Fatalf("%s read = %q, %v", box, got, err)
		}
	}
}
