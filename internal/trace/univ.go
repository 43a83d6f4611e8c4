package trace

import (
	"fmt"
	"time"

	"repro/internal/addr"
	"repro/internal/sim"
)

// deptSpamRcptCDF is the recipients-per-spam distribution at a real
// departmental server: unlike the sinkhole (which accepts any guess, so
// spammers pile recipients on), department-bound spam carries the few
// harvested addresses — a mean of ≈1.7 but still clearly above ham's
// 1.02, preserving the §8 observation that "a legitimate SMTP session
// contains fewer recipients as compared to a spam".
var deptSpamRcptCDF = sim.NewCDFSampler([]struct{ X, Frac float64 }{
	{1, 0.62}, {2, 0.82}, {3, 0.92}, {5, 0.98}, {8, 1},
})

// Published statistics of the Univ trace (Table 1).
const (
	// UnivConnections is the month's connection count.
	UnivConnections = 1862349
	// UnivIPs is the unique client count.
	UnivIPs = 621124
	// UnivSpamRatio is the Spam-Assassin-flagged fraction.
	UnivSpamRatio = 0.67
	// UnivDuration is November 2007.
	UnivDuration = 30 * 24 * time.Hour
	// UnivHamRcptMean is the average recipients per legitimate mail
	// (1.02, consistent with Clayton's study — paper ref [3]).
	UnivHamRcptMean = 1.02
)

// UnivConfig parameterizes the departmental-workload generator.
type UnivConfig struct {
	// Seed drives all randomness.
	Seed uint64
	// Connections to generate (default: a 20k-connection scaled month —
	// the full 1.86M is available by setting it explicitly).
	Connections int
	// Duration of the trace (default UnivDuration).
	Duration time.Duration
	// SpamRatio is the fraction of spam connections (default 0.67).
	SpamRatio float64
	// BounceRatio is the fraction of spam connections that are bounces
	// (default 0.25, the ECN midpoint; §4.1 attributes bounces to
	// random-guessing spammers).
	BounceRatio float64
	// UnfinishedRatio is the fraction of spam connections abandoned
	// mid-handshake (default 0.10).
	UnfinishedRatio float64
	// Mailboxes is the number of local users (default 400, "over 400
	// mailboxes").
	Mailboxes int
	// Domain is the local domain (default "dept.example.edu").
	Domain string
}

// Univ generates the departmental mail workload: a 67/33 spam/ham mix
// where ham comes from long-lived static IPs with ≈1 recipient and spam
// behaves like the sinkhole's botnet traffic.
type Univ struct {
	cfg      UnivConfig
	rng      *sim.RNG
	sinkhole *Sinkhole
	hamHosts []addr.IPv4
}

// NewUniv builds the generator.
func NewUniv(cfg UnivConfig) *Univ {
	if cfg.Connections <= 0 {
		cfg.Connections = 20000
	}
	if cfg.Duration <= 0 {
		cfg.Duration = UnivDuration
	}
	if cfg.SpamRatio == 0 {
		cfg.SpamRatio = UnivSpamRatio
	}
	if cfg.BounceRatio == 0 {
		cfg.BounceRatio = 0.25
	}
	if cfg.UnfinishedRatio == 0 {
		cfg.UnfinishedRatio = 0.10
	}
	if cfg.Mailboxes <= 0 {
		cfg.Mailboxes = 400
	}
	if cfg.Domain == "" {
		cfg.Domain = "dept.example.edu"
	}
	u := &Univ{cfg: cfg, rng: sim.NewRNG(cfg.Seed)}

	// The spam side reuses the sinkhole population model, scaled to the
	// spam share of the connection budget.
	spamConns := int(float64(cfg.Connections) * cfg.SpamRatio)
	prefixes := spamConns / 10
	if prefixes < 16 {
		prefixes = 16
	}
	if prefixes > SinkholePrefixes {
		prefixes = SinkholePrefixes
	}
	u.sinkhole = NewSinkhole(SinkholeConfig{
		Seed:            cfg.Seed + 1,
		Connections:     spamConns,
		Prefixes:        prefixes,
		Duration:        cfg.Duration,
		BounceRatio:     cfg.BounceRatio,
		UnfinishedRatio: cfg.UnfinishedRatio,
		RcptDomain:      cfg.Domain,
		ValidMailboxes:  cfg.Mailboxes,
		RcptSampler:     deptSpamRcptCDF,
	})

	// Legitimate mail originates from long-lasting static IPs (paper
	// ref [30]): a small, stable pool of peer mail servers.
	nHam := 64
	for i := 0; i < nHam; i++ {
		u.hamHosts = append(u.hamHosts,
			addr.MakeIPv4(8, byte(4+i/64), byte(i%64), byte(10+i%200)))
	}
	return u
}

// Generate produces the mixed trace in arrival order.
func (u *Univ) Generate() []Conn {
	spam := u.sinkhole.Generate()
	nHam := u.cfg.Connections - len(spam)
	ham := make([]Conn, 0, nHam)
	meanGap := u.cfg.Duration / time.Duration(nHam+1)
	now := time.Duration(0)
	for i := 0; i < nHam; i++ {
		now += u.rng.Exp(meanGap)
		host := u.hamHosts[u.rng.Intn(len(u.hamHosts))]
		k := 1
		// Mean 1.02 recipients: a 2% chance of a second recipient.
		if u.rng.Bool(UnivHamRcptMean - 1) {
			k = 2
		}
		rcpts := make([]Rcpt, 0, k)
		for j := 0; j < k; j++ {
			rcpts = append(rcpts, Rcpt{
				Addr:  fmt.Sprintf("user%04d@%s", u.rng.Intn(u.cfg.Mailboxes), u.cfg.Domain),
				Valid: true,
			})
		}
		ham = append(ham, Conn{
			At:        now,
			ClientIP:  host,
			Helo:      fmt.Sprintf("mx%d.peer.example", host),
			Sender:    fmt.Sprintf("colleague%03d@peer.example", u.rng.Intn(500)),
			Rcpts:     rcpts,
			SizeBytes: hamSize(u.rng),
			Spam:      false,
		})
	}
	return mergeByTime(spam, ham)
}

// hamSize draws a legitimate-mail size: wider spread than spam
// (attachments), median ≈6 KB.
func hamSize(rng *sim.RNG) int {
	size := int(rng.LogNormal(8.7, 1.1))
	if size < 500 {
		size = 500
	}
	if size > 4<<20 {
		size = 4 << 20
	}
	return size
}

// mergeByTime merges two time-ordered traces.
func mergeByTime(a, b []Conn) []Conn {
	out := make([]Conn, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].At <= b[j].At {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
