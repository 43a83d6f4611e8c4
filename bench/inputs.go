package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/addr"
	"repro/internal/trace"
	"repro/internal/workload"
)

// rcptSpec is one RCPT TO the generator sends and whether the server's
// access database holds it.
type rcptSpec struct {
	addr  string
	valid bool
}

// connSpec is one connection the generator will make.
type connSpec struct {
	kind       opKind
	isOp       bool   // counts as the workload's unit of work
	src        string // local address to dial from; "" lets the kernel choose
	helo       string
	rcpts      []rcptSpec
	size       int  // body bytes
	unfinished bool // drop after HELO
}

// popSpec is one POP3 session: a mailbox and ten draws that become RETR
// positions once LIST has said how many messages there are.
type popSpec struct {
	box  string
	retr [popRetrs]uint32
}

const popRetrs = 10

// inputs is everything a workload is made of, generated from the seed
// before any server exists. spec and pop are pure functions of their
// argument.
type inputs struct {
	name     string
	policy   bool
	pop3     bool
	director bool
	listed   []addr.IPv4 // DNSBL zone contents

	smtpSlots      int
	openRate       float64 // connections per second over all SMTP slots; 0 = closed loop
	maxOutstanding int     // closed loop: acked-not-yet-durable mails allowed
	spec           func(seq int) connSpec
	pop            func(i int) popSpec
	popRate        float64 // POP3 sessions per second

	prefillMails int // shared mails delivered during set-up
	prefill      func(k int) (boxes []string, body []byte)
	prefillPer   int // mails each hot mailbox holds after set-up

	digest string
}

func userBox(i int) string  { return fmt.Sprintf("user%04d", i) }
func userAddr(i int) string { return userBox(i) + "@" + domain }

// The body filler: 64-byte CRLF lines, some starting with a dot so that
// dot-stuffing on the way in and out is part of the read-back check.
var filler = func() []byte {
	const lines = 2048
	b := make([]byte, 0, lines*64)
	for i := 0; i < lines; i++ {
		line := fmt.Sprintf("%04d The quick brown fox jumps over the lazy dog 0123456789 abcdefghij", i)
		if i%7 == 3 {
			line = "." + line
		}
		b = append(b, line[:62]...)
		b = append(b, '\r', '\n')
	}
	return b
}()

// appendBody appends the message body identified by tag (its first
// header line, without CRLF) to dst: a function of tag, salt and size
// only, so the read-back check can rebuild it. size counts every byte.
func appendBody(dst []byte, tag string, salt, size int) []byte {
	start := len(dst)
	dst = append(dst, tag...)
	dst = append(dst, "\r\nSubject: benchmark\r\n\r\n"...)
	for off := (salt % 1024) * 64; len(dst)-start < size; off = 0 {
		n := size - (len(dst) - start)
		if n > len(filler)-off {
			n = len(filler) - off
		}
		dst = append(dst, filler[off:off+n]...)
	}
	if n := len(dst); n-start >= 2 {
		dst[n-2], dst[n-1] = '\r', '\n'
	}
	return dst
}

func opBody(dst []byte, seq, size int) []byte {
	return appendBody(dst, opTagPrefix+strconv.Itoa(seq), seq, size)
}

const prefillTagPrefix = "X-Bench-Prefill: "

func prefillID(k int) string { return fmt.Sprintf("PRE%08d", k) }

// generate builds the named workload's inputs. total is how long the
// generator will run, which sizes the open-loop traces; closed-loop
// pools wrap around.
func generate(name string, seed uint64, total time.Duration) (*inputs, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	in := &inputs{name: name, smtpSlots: 2}
	h := sha256.New()
	switch name {
	case "univ_steady":
		genUniv(in, seed, total, h)
	case "ham_saturate":
		genHam(in, rng, h)
	case "director_ham":
		genHam(in, rng, h)
		in.director = true
	case "spam_flood":
		genSpam(in, seed, rng, total, h)
	case "store_mixed":
		genStore(in, rng, h)
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	in.digest = hex.EncodeToString(h.Sum(nil)[:8])
	return in, nil
}

const univRate = 600 // connections per second

// genUniv: the departmental mix on a fixed 600 conn/s schedule.
func genUniv(in *inputs, seed uint64, total time.Duration, h hash.Hash) {
	n := int(total.Seconds()*univRate) + univRate
	conns := trace.NewUniv(trace.UnivConfig{
		Seed:        seed,
		Connections: n,
		Duration:    time.Duration(n) * time.Second / univRate,
		Mailboxes:   mailboxCount,
		Domain:      domain,
	}).Generate()
	in.openRate = univRate
	specs := make([]connSpec, len(conns))
	for i := range conns {
		c := &conns[i]
		s := connSpec{kind: opShed, helo: c.Helo, unfinished: c.Unfinished}
		if c.Delivers() {
			s.kind, s.isOp = opMail, true
		}
		for _, r := range c.Rcpts {
			s.rcpts = append(s.rcpts, rcptSpec{r.Addr, r.Valid})
		}
		// The ham size model has a 4 MiB tail; a handful of such
		// mails would decide bytes-per-op for the whole run and differ
		// from seed to seed, so sizes are capped.
		s.size = min(c.SizeBytes, 32<<10)
		specs[i] = s
		fmt.Fprintf(h, "%d %v %v %d\n", s.kind, s.unfinished, s.rcpts, s.size)
	}
	in.spec = func(seq int) connSpec { return specs[seq%len(specs)] }
}

const hamSize = 4 << 10

// genHam: one 4 KiB mail to one valid mailbox per connection.
func genHam(in *inputs, rng *rand.Rand, h hash.Hash) {
	in.maxOutstanding = 64
	pool := make([]uint16, 1<<16)
	for i := range pool {
		pool[i] = uint16(rng.Intn(mailboxCount))
	}
	fmt.Fprintf(h, "%v", pool)
	in.spec = func(seq int) connSpec {
		return connSpec{
			kind: opMail, isOp: true, helo: "client.load.example", size: hamSize,
			rcpts: []rcptSpec{{userAddr(int(pool[seq%len(pool)])), true}},
		}
	}
}

// spamConn is connSpec packed into 8 bytes for the spam pool.
type spamConn struct {
	ip         addr.IPv4
	rcpts      uint8 // 0: unfinished or listed
	unfinished bool
}

// genSpam: sinkhole sources, none of which delivers. A source is either
// DNSBL-listed (refused at connect) or not; an unlisted source's
// connections are bounces (3–7 unknown recipients) and unfinished
// dialogs two to one.
func genSpam(in *inputs, seed uint64, rng *rand.Rand, total time.Duration, h hash.Hash) {
	in.policy = true
	n := int(total.Seconds()) * 12000
	conns := trace.NewSinkhole(trace.SinkholeConfig{Seed: seed, Connections: n, RcptDomain: domain}).Generate()
	listed := map[addr.IPv4]bool{}
	pool := make([]spamConn, len(conns))
	listedConns := 0
	for i := range conns {
		ip := workload.LoopbackSource(conns[i].ClientIP)
		isListed, seen := listed[ip]
		if !seen {
			// Decide a new source so that listed sources keep sending
			// 40 % of the connections, whatever their repeat counts.
			isListed = float64(listedConns) < 0.4*float64(i)
			listed[ip] = isListed
			if isListed {
				in.listed = append(in.listed, ip)
			}
		}
		c := spamConn{ip: ip}
		switch {
		case isListed:
			listedConns++
		case rng.Intn(3) == 0:
			c.unfinished = true
		default:
			c.rcpts = uint8(3 + rng.Intn(5))
		}
		pool[i] = c
		fmt.Fprintf(h, "%d %d %v\n", c.ip, c.rcpts, c.unfinished)
	}
	in.spec = func(seq int) connSpec {
		c := pool[seq%len(pool)]
		s := connSpec{kind: opShed, isOp: true, src: c.ip.String(), helo: "bot.load.example", unfinished: c.unfinished}
		for j := 0; j < int(c.rcpts); j++ {
			s.rcpts = append(s.rcpts, rcptSpec{fmt.Sprintf("nobody%d-%d@%s", seq, j, domain), false})
		}
		return s
	}
}

const (
	storeRate    = 100 // mails per second
	storePopRate = 60  // POP3 sessions per second, about a quarter of what one connection can do
	storeSize    = 8 << 10
	storeRcpts   = 8
	storeHot     = 64
	storePrefill = 200 // mails per hot mailbox after set-up
)

// genStore: 8-recipient mails into a hot set of mailboxes that POP3
// sessions read and trim at the same time.
func genStore(in *inputs, rng *rand.Rand, h hash.Hash) {
	in.pop3 = true
	in.smtpSlots = 1
	in.openRate = storeRate
	in.popRate = storePopRate
	hot := rng.Perm(mailboxCount)[:storeHot]
	fmt.Fprintf(h, "%v", hot)

	type draw struct {
		boxes [storeRcpts]uint8
		pop   popSpec
	}
	pool := make([]draw, 1<<14)
	for i := range pool {
		for j, p := range rng.Perm(storeHot)[:storeRcpts] {
			pool[i].boxes[j] = uint8(p)
		}
		pool[i].pop.box = userBox(hot[rng.Intn(storeHot)])
		for j := range pool[i].pop.retr {
			pool[i].pop.retr[j] = rng.Uint32()
		}
		fmt.Fprintf(h, "%v", pool[i])
	}
	in.spec = func(seq int) connSpec {
		s := connSpec{kind: opMail, isOp: true, helo: "client.load.example", size: storeSize}
		for _, b := range pool[seq%len(pool)].boxes {
			s.rcpts = append(s.rcpts, rcptSpec{userAddr(hot[b]), true})
		}
		return s
	}
	in.pop = func(i int) popSpec { return pool[i%len(pool)].pop }

	// Mail k goes to hot boxes 8k…8k+7 (mod 64), so every box ends up
	// with exactly storePrefill mails.
	in.prefillPer = storePrefill
	in.prefillMails = storePrefill * storeHot / storeRcpts
	in.prefill = func(k int) ([]string, []byte) {
		boxes := make([]string, storeRcpts)
		for j := range boxes {
			boxes[j] = userBox(hot[(k*storeRcpts+j)%storeHot])
		}
		return boxes, appendBody(nil, prefillTagPrefix+strconv.Itoa(k), k, storeSize)
	}
}

// mailboxesOf lists the mailboxes a delivered spec must appear in: its
// valid recipients, each once.
func mailboxesOf(s connSpec) []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range s.rcpts {
		if !r.valid {
			continue
		}
		box, _, _ := strings.Cut(strings.ToLower(r.addr), "@")
		if !seen[box] {
			seen[box] = true
			out = append(out, box)
		}
	}
	return out
}
