package director

import (
	"fmt"
	"net"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/smtp"
	"repro/internal/smtpserver"
	"repro/internal/trace"
)

// A director is an smtpserver whose worker is remote, so a client must
// not be able to tell the two apart until mail is forwarded. The parity
// table plays one scripted dialog against a bare smtpserver and against
// a director in front of one, and holds both to the same reply sequence.

// dialogConn is one client connection of a script: after the banner,
// each step writes its bytes in one burst and reads that many replies.
type dialogConn struct {
	steps []dialogStep
	// bounce marks a connection the server finishes pre-trust; the
	// runner waits for the server to have accounted it (and fed the
	// reputation store) before opening the next one.
	bounce bool
}

type dialogStep struct {
	send    string
	replies int
}

// frontEnd is one world a script runs against.
type frontEnd struct {
	addr           string
	preTrustClosed func() int64
}

// play runs the script and returns, per connection, the reply codes in
// order — banner first. A multiline reply (EHLO) is rendered with its
// extension keywords, "250 XTRACE"; a connection the server drops reads
// "EOF".
func play(t *testing.T, fe frontEnd, script []dialogConn) [][]string {
	t.Helper()
	var got [][]string
	bounces := int64(0)
	for _, dc := range script {
		nc, err := net.Dial("tcp", fe.addr)
		if err != nil {
			t.Fatal(err)
		}
		nc.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
		c := smtp.NewConn(nc)
		var codes []string
		read := func(n int) bool {
			for i := 0; i < n; i++ {
				r, err := c.ReadReply()
				if err != nil {
					codes = append(codes, "EOF")
					return false
				}
				code, exts, _ := strings.Cut(r.String(), "\n")
				code, _, _ = strings.Cut(code, " ")
				if exts != "" {
					code += " " + strings.ReplaceAll(exts, "\n", ",")
				}
				codes = append(codes, code)
			}
			return true
		}
		ok := read(1)
		for _, st := range dc.steps {
			if !ok {
				break
			}
			if _, err := nc.Write([]byte(st.send)); err != nil {
				t.Fatal(err)
			}
			ok = read(st.replies)
		}
		nc.Close()
		got = append(got, codes)
		if dc.bounce {
			bounces++
			deadline := time.Now().Add(5 * time.Second)
			for fe.preTrustClosed() < bounces && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
		}
	}
	return got
}

func validTest(a string) bool { return strings.HasSuffix(a, "@valid.test") }

const (
	helo     = "HELO client.test\r\n"
	mail     = "MAIL FROM:<s@remote.test>\r\n"
	rcptOK   = "RCPT TO:<a@valid.test>\r\n"
	rcptBad  = "RCPT TO:<guess@wrong.test>\r\n"
	body     = "Subject: x\r\n\r\nbody\r\n"
	bodyQuit = body + ".\r\nQUIT\r\n"
)

func TestDialogParityWithSmtpserver(t *testing.T) {
	// Two bounces on record score 3.0, below the tempfail threshold 4;
	// one more bounce connection with one 550 (~1.95) tips the source over.
	oneMoreBounceCondemns := func() *policy.ServerPolicy {
		p := policy.NewServerPolicy(policy.New(policy.WithReputation(policy.ReputationConfig{})), nil)
		for i := 0; i < 2; i++ {
			p.RecordBounce(netip.MustParseAddr("127.0.0.1"))
		}
		return p
	}
	rows := []struct {
		name     string
		policy   func() *policy.ServerPolicy // fresh state per world
		tracer   bool
		maxBytes int
		// shard picks what the director forwards to: "" a sink taking
		// everything, "dead" nothing listening, "refusing" a shard that
		// 550s every recipient. Rows with a non-default shard exercise
		// the forward refusals and run against the director only.
		shard  string
		script []dialogConn
		want   [][]string
	}{{
		name: "pipelined burst",
		script: []dialogConn{{steps: []dialogStep{
			{helo + mail + rcptOK + rcptBad + "DATA\r\n", 5},
			{bodyQuit, 2},
		}}},
		want: [][]string{{"220", "250", "250", "250", "550", "354", "250", "221"}},
	}, {
		name: "chunked burst, a refused chunk read past",
		script: []dialogConn{{steps: []dialogStep{
			{"EHLO client.test\r\n" + mail + rcptBad + "BDAT 5 LAST\r\nhello", 4},
			{mail + rcptOK + fmt.Sprintf("BDAT %d LAST\r\n%sQUIT\r\n", len(body), body), 4},
		}}},
		want: [][]string{{"220", "250 PIPELINING,CHUNKING", "250", "550", "554", "250", "250", "250", "221"}},
	}, {
		name: "over-long line draws 500 and the dialog continues",
		script: []dialogConn{{steps: []dialogStep{
			{"HELO " + strings.Repeat("x", smtp.MaxLineLen+100) + "\r\n", 1},
			{helo + "QUIT\r\n", 2},
		}}},
		want: [][]string{{"220", "500", "250", "221"}},
	}, {
		name:     "over-size DATA draws 552 and the dialog continues",
		maxBytes: 64,
		script: []dialogConn{{steps: []dialogStep{
			{helo + mail + rcptOK + "DATA\r\n", 4},
			{strings.Repeat("y", 200) + "\r\n.\r\n", 1},
			{"NOOP\r\nQUIT\r\n", 2},
		}}},
		want: [][]string{{"220", "250", "250", "250", "354", "552", "250", "221"}},
	}, {
		name: "RSET mid-transaction",
		script: []dialogConn{{steps: []dialogStep{
			{helo + mail + rcptOK + "RSET\r\n" + rcptOK, 5},
			{mail + rcptOK + "DATA\r\n", 3},
			{bodyQuit, 2},
		}}},
		want: [][]string{{"220", "250", "250", "250", "250", "503", "250", "250", "354", "250", "221"}},
	}, {
		name:   "550-only bounce, then policy refuses the reconnect",
		policy: oneMoreBounceCondemns,
		script: []dialogConn{
			{steps: []dialogStep{{helo + mail + rcptBad + "QUIT\r\n", 4}}, bounce: true},
			{},
		},
		want: [][]string{{"220", "250", "250", "550", "221"}, {"421"}},
	}, {
		name: "greylist 450",
		policy: func() *policy.ServerPolicy {
			return policy.NewServerPolicy(policy.New(policy.WithGreylist(policy.GreyConfig{MinRetry: time.Hour})), nil)
		},
		script: []dialogConn{{steps: []dialogStep{{helo + mail + rcptOK + "QUIT\r\n", 4}}}},
		want:   [][]string{{"220", "250", "250", "450", "221"}},
	}, {
		name: "connect-time 554 (DNSBL-listed)",
		policy: func() *policy.ServerPolicy {
			scorer := policy.NewScorer(policy.WithLists(policy.List{
				Name: testZone, Weight: 1, Resolver: memDNSBL(time.Now, listing("127.0.0.1")),
			}))
			return policy.NewServerPolicy(policy.New(policy.WithDNSBLReject(1)), scorer)
		},
		script: []dialogConn{{}},
		want:   [][]string{{"554"}},
	}, {
		name: "connect-time 421 (over the per-IP rate)",
		policy: func() *policy.ServerPolicy {
			return policy.NewServerPolicy(policy.New(policy.WithRate(policy.RateConfig{ConnPerSec: 0.001, ConnBurst: 1})), nil)
		},
		script: []dialogConn{{steps: []dialogStep{{helo + "QUIT\r\n", 2}}}, {}},
		want:   [][]string{{"220", "250", "221"}, {"421"}},
	}, {
		name:   "EHLO advertises XTRACE when a message tracer is attached",
		tracer: true,
		script: []dialogConn{{steps: []dialogStep{{"EHLO client.test\r\nQUIT\r\n", 2}}}},
		want:   [][]string{{"220", "250 PIPELINING,CHUNKING,XTRACE", "221"}},
	}, {
		name:  "director only: every shard down tempfails 451",
		shard: "dead",
		script: []dialogConn{{steps: []dialogStep{
			{helo + mail + rcptOK + "DATA\r\n", 4},
			{bodyQuit, 2},
		}}},
		want: [][]string{{"220", "250", "250", "250", "354", "451", "221"}},
	}, {
		name:  "director only: every recipient cleanly refused fails 554",
		shard: "refusing",
		script: []dialogConn{{steps: []dialogStep{
			{helo + mail + rcptOK + "DATA\r\n", 4},
			{bodyQuit, 2},
		}}},
		want: [][]string{{"220", "250", "250", "250", "354", "554", "221"}},
	}}

	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			// Both worlds are configured from the same row, through each
			// package's own options.
			bare := []smtpserver.Option{
				smtpserver.WithHostname("fe.test"),
				smtpserver.WithIdleTimeout(5 * time.Second),
				smtpserver.WithValidateRcpt(validTest),
				smtpserver.WithMaxMessageBytes(row.maxBytes),
			}
			dir := []Option{
				WithValidateRcpt(validTest),
				WithFront(smtpserver.WithMaxMessageBytes(row.maxBytes)),
			}
			if row.policy != nil {
				bare = append(bare, smtpserver.WithPolicy(row.policy()))
				dir = append(dir, WithFront(smtpserver.WithPolicy(row.policy())))
			}
			if row.tracer {
				bare = append(bare, smtpserver.WithMessageTracer(trace.NewMessageRecorder("bare", 64, 1)))
				dir = append(dir, WithFront(smtpserver.WithMessageTracer(trace.NewMessageRecorder("dir", 64, 1))))
			}

			if row.shard == "" {
				srv, err := smtpserver.New(newSink().enqueue, bare...)
				if err != nil {
					t.Fatal(err)
				}
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				go srv.Serve(ln)                  //nolint:errcheck
				t.Cleanup(func() { srv.Close() }) //nolint:errcheck
				fe := frontEnd{ln.Addr().String(), func() int64 { return srv.Stats().PreTrustClosed }}
				if got := play(t, fe, row.script); !reflect.DeepEqual(got, row.want) {
					t.Errorf("smtpserver replied %v, want %v", got, row.want)
				}
			}

			var shardAddr string
			switch row.shard {
			case "dead":
				addr, _, kill := startShardServer(t)
				kill()
				shardAddr = addr
			case "refusing":
				shardAddr = startRefusingShard(t)
			default:
				shardAddr, _, _ = startShardServer(t)
			}
			d, addr := startDirector(t, append(dir, WithBackend("shard-a", shardAddr))...)
			fe := frontEnd{addr, func() int64 { return d.Front().Stats().PreTrustClosed }}
			if got := play(t, fe, row.script); !reflect.DeepEqual(got, row.want) {
				t.Errorf("director replied %v, want %v", got, row.want)
			}
		})
	}
}

// startRefusingShard boots a shard that 550s every recipient.
func startRefusingShard(t *testing.T) string {
	t.Helper()
	srv, err := smtpserver.New(newSink().enqueue,
		smtpserver.WithArchitecture(smtpserver.Vanilla),
		smtpserver.WithValidateRcpt(func(string) bool { return false }),
	)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)                  //nolint:errcheck
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck
	return ln.Addr().String()
}

// TestCloseRacingServe: Close right after `go Serve(ln)` may run before
// Serve has taken the listener. Close must not wait for it, Serve must
// then return instead of parking in Accept, and the listener it was
// handed must end up closed either way.
func TestCloseRacingServe(t *testing.T) {
	for i := 0; i < 50; i++ {
		d, err := New(WithBackend("shard-a", "127.0.0.1:1"))
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan struct{})
		go func() { defer close(served); d.Serve(ln) }()
		closed := make(chan struct{})
		go func() { defer close(closed); d.Close(); d.Close() }() // idempotent
		for _, ch := range []chan struct{}{closed, served} {
			select {
			case <-ch:
			case <-time.After(5 * time.Second):
				t.Fatal("Close or Serve hung")
			}
		}
		if nc, err := ln.Accept(); err == nil {
			nc.Close()
			t.Fatal("listener still open after Close and Serve returned: fd leaked")
		}
	}
}
