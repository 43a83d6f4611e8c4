package trace

import (
	"fmt"
	"time"

	"repro/internal/addr"
	"repro/internal/sim"
)

// Published statistics of the two-month sinkhole trace (Table 1).
const (
	// SinkholeConnections is the connection count of the real trace.
	SinkholeConnections = 101692
	// SinkholeIPs is the unique spam-origin count.
	SinkholeIPs = 19492
	// SinkholePrefixes is the unique /24 count.
	SinkholePrefixes = 8832
	// SinkholeDuration spans May–June 2007.
	SinkholeDuration = 61 * 24 * time.Hour
)

// fig4RcptCDF is the recipients-per-connection distribution of Figure 4:
// "the number of 'rcpt to' fields in a single spam mail is commonly
// between 5-15"; the trace-wide average is ≈7 (§6.3).
var fig4RcptCDF = sim.NewCDFSampler([]struct{ X, Frac float64 }{
	{1, 0.06}, {2, 0.11}, {3, 0.17}, {4, 0.23}, {5, 0.31},
	{7, 0.50}, {10, 0.72}, {12, 0.84}, {15, 0.94}, {17, 0.975}, {20, 1},
})

// fig12InfestationCDF is the blacklisted-IPs-per-/24 distribution of
// Figure 12: 40% of the /24s of sinkhole spammers contain more than 10
// CBL-listed IPs and about 3% contain more than 100.
var fig12InfestationCDF = sim.NewCDFSampler([]struct{ X, Frac float64 }{
	{1, 0}, {2, 0.22}, {5, 0.45}, {10, 0.60}, {30, 0.82},
	{60, 0.92}, {100, 0.97}, {180, 0.995}, {254, 1},
})

// SinkholeConfig parameterizes the sinkhole generator. The zero value
// (via NewSinkhole defaults) reproduces the published trace shape at
// full scale; reduce Connections for quick experiments.
type SinkholeConfig struct {
	// Seed drives all randomness.
	Seed uint64
	// Connections is the number of connections to generate (default
	// SinkholeConnections).
	Connections int
	// IPs and Prefixes scale the origin population (defaults
	// SinkholeIPs / SinkholePrefixes). Scaled traces keep the published
	// IPs-per-prefix ratio unless both are set explicitly.
	IPs      int
	Prefixes int
	// Duration is the trace length (default SinkholeDuration).
	Duration time.Duration
	// BounceRatio is the fraction of connections whose recipients are
	// all invalid — zero for the pure sinkhole (a sinkhole accepts
	// everything) and set to the ECN-observed ratio for the §8 combined
	// workload.
	BounceRatio float64
	// UnfinishedRatio is the fraction of connections abandoned after the
	// handshake.
	UnfinishedRatio float64
	// RcptDomain is the recipient domain (default "sink.example.org").
	RcptDomain string
	// ValidMailboxes is the number of real mailboxes valid recipients
	// are drawn from (default 400).
	ValidMailboxes int
	// HotRepeatProb is the probability that the next connection comes
	// from an IP active within the recent window — bots spam in
	// campaigns, re-sending for hours (default 0.54). Together with
	// PrefixRepeatProb it is the temporal-locality dial behind
	// Figures 13 and 15; the defaults are calibrated so a 24h-TTL cache
	// replay of the full-scale trace reproduces the paper's hit ratios
	// (73.8% per-IP, 83.9% per-prefix).
	HotRepeatProb float64
	// PrefixRepeatProb is the probability that the next connection comes
	// from a *different* bot inside a recently active /24 (default
	// 0.38) — the spatial correlation prefix-based caching exploits.
	PrefixRepeatProb float64
	// HotWindow is how long an origin stays "recent" (default 15h,
	// inside the 24h DNSBL TTL).
	HotWindow time.Duration
	// RcptSampler overrides the recipients-per-connection distribution
	// (default: the Figure 4 sinkhole distribution). The Univ model uses
	// a departmental distribution: spammers at a real department target
	// the few addresses they have harvested.
	RcptSampler *sim.CDFSampler
}

// Sinkhole generates sinkhole-style spam traffic.
type Sinkhole struct {
	cfg SinkholeConfig
	rng *sim.RNG

	prefixes   []addr.Prefix
	infested   []int         // CBL-listed count per prefix
	spamIPs    [][]addr.IPv4 // sinkhole spammers per prefix
	allSpamIPs []addr.IPv4
	cblListed  []addr.IPv4 // the whole simulated CBL population
	weights    []float64   // prefix selection weights
}

// NewSinkhole builds a generator; the construction itself lays out the
// IP population deterministically from the seed.
func NewSinkhole(cfg SinkholeConfig) *Sinkhole {
	if cfg.Connections <= 0 {
		cfg.Connections = SinkholeConnections
	}
	if cfg.Prefixes <= 0 {
		cfg.Prefixes = SinkholePrefixes
	}
	if cfg.IPs <= 0 {
		// Preserve the published IPs:prefixes ratio when scaled.
		cfg.IPs = cfg.Prefixes * SinkholeIPs / SinkholePrefixes
	}
	if cfg.IPs < cfg.Prefixes {
		cfg.IPs = cfg.Prefixes // every prefix has at least one spammer
	}
	if cfg.Duration <= 0 {
		cfg.Duration = SinkholeDuration
	}
	if cfg.RcptDomain == "" {
		cfg.RcptDomain = "sink.example.org"
	}
	if cfg.ValidMailboxes <= 0 {
		cfg.ValidMailboxes = 400
	}
	if cfg.HotRepeatProb == 0 {
		cfg.HotRepeatProb = 0.54
	}
	if cfg.PrefixRepeatProb == 0 {
		cfg.PrefixRepeatProb = 0.38
	}
	if cfg.HotWindow <= 0 {
		cfg.HotWindow = 15 * time.Hour
	}
	if cfg.RcptSampler == nil {
		cfg.RcptSampler = fig4RcptCDF
	}
	s := &Sinkhole{cfg: cfg, rng: sim.NewRNG(cfg.Seed)}
	s.layoutPopulation()
	return s
}

// layoutPopulation assigns /24 prefixes, their CBL infestation levels,
// and the sinkhole spammers within them.
func (s *Sinkhole) layoutPopulation() {
	seen := make(map[addr.Prefix]bool, s.cfg.Prefixes)
	for len(s.prefixes) < s.cfg.Prefixes {
		// Spam sources concentrate in a handful of /8s (dynamic ranges);
		// pick the high octets from a small pool to mimic that without
		// affecting any measured statistic.
		a := byte(60 + s.rng.Intn(150))
		p := addr.MakeIPv4(a, byte(s.rng.Intn(256)), byte(s.rng.Intn(256)), 0).Prefix24()
		if !seen[p] {
			seen[p] = true
			s.prefixes = append(s.prefixes, p)
		}
	}

	// Infestation level per prefix (Figure 12) and the CBL population.
	s.infested = make([]int, len(s.prefixes))
	totalInfested := 0
	for i := range s.prefixes {
		l := int(fig12InfestationCDF.Sample(s.rng))
		if l < 1 {
			l = 1
		}
		if l > 254 {
			l = 254
		}
		s.infested[i] = l
		totalInfested += l
	}

	// Every prefix contributes one spammer; the surplus is distributed
	// proportionally to infestation (bots cluster where bots are).
	s.spamIPs = make([][]addr.IPv4, len(s.prefixes))
	counts := make([]int, len(s.prefixes))
	for i := range counts {
		counts[i] = 1
	}
	surplus := s.cfg.IPs - len(s.prefixes)
	weights := make([]float64, len(s.prefixes))
	for i, l := range s.infested {
		weights[i] = float64(l)
	}
	for n := 0; n < surplus; n++ {
		i := s.rng.WeightedChoice(weights)
		if counts[i] < s.infested[i] {
			counts[i]++
		} else {
			// Prefix saturated: place the bot in the next unsaturated one.
			for j := range counts {
				k := (i + j) % len(counts)
				if counts[k] < s.infested[k] {
					counts[k]++
					break
				}
			}
		}
	}

	// Materialize addresses: the first counts[i] infested hosts spam the
	// sinkhole; all infested hosts are CBL-listed.
	for i, p := range s.prefixes {
		hosts := s.rng.Perm(254) // host octets 1..254
		for h := 0; h < s.infested[i]; h++ {
			ip := p.Nth(hosts[h] + 1)
			s.cblListed = append(s.cblListed, ip)
			if h < counts[i] {
				s.spamIPs[i] = append(s.spamIPs[i], ip)
				s.allSpamIPs = append(s.allSpamIPs, ip)
			}
		}
	}
	s.weights = weights
}

// SpamIPs returns every sinkhole spammer address.
func (s *Sinkhole) SpamIPs() []addr.IPv4 {
	return append([]addr.IPv4(nil), s.allSpamIPs...)
}

// CBLPopulation returns every blacklisted address in the simulated CBL —
// the zone contents for the DNSBL server.
func (s *Sinkhole) CBLPopulation() []addr.IPv4 {
	return append([]addr.IPv4(nil), s.cblListed...)
}

// recentConn is one entry of the generator's recency window.
type recentConn struct {
	at     time.Duration
	prefix int
	ip     addr.IPv4
}

// Generate produces the connection trace. The arrival process mixes
// three behaviours: a campaign repeat (the same bot sends again within
// the hot window), a neighbourhood repeat (a different bot in a recently
// active /24 — the spatial locality of §7.1), and a cold draw weighted by
// prefix infestation. The mix is what reproduces Figure 13's interarrival
// gap and Figure 15's cache hit ratios.
func (s *Sinkhole) Generate() []Conn {
	n := s.cfg.Connections
	conns := make([]Conn, 0, n)
	meanGap := s.cfg.Duration / time.Duration(n)
	now := time.Duration(0)

	var recent []recentConn

	for i := 0; i < n; i++ {
		now += s.rng.Exp(meanGap)
		// Evict window entries older than HotWindow.
		cut := 0
		for cut < len(recent) && now-recent[cut].at > s.cfg.HotWindow {
			cut++
		}
		recent = recent[cut:]

		var pi int
		var ip addr.IPv4
		roll := s.rng.Float64()
		switch {
		case len(recent) > 0 && roll < s.cfg.HotRepeatProb:
			// Campaign repeat: the same bot again.
			rc := recent[s.rng.Intn(len(recent))]
			pi, ip = rc.prefix, rc.ip
		case len(recent) > 0 && roll < s.cfg.HotRepeatProb+s.cfg.PrefixRepeatProb:
			// Neighbourhood repeat: another bot in a hot /24.
			rc := recent[s.rng.Intn(len(recent))]
			pi = rc.prefix
			ips := s.spamIPs[pi]
			ip = ips[s.rng.Intn(len(ips))]
		default:
			// Cold draw weighted by infestation.
			pi = s.rng.WeightedChoice(s.weights)
			ips := s.spamIPs[pi]
			ip = ips[s.rng.Intn(len(ips))]
		}
		recent = append(recent, recentConn{at: now, prefix: pi, ip: ip})

		c := Conn{
			At:       now,
			ClientIP: ip,
			Helo:     fmt.Sprintf("host%d.bot.example", ip),
			Sender:   fmt.Sprintf("promo%d@offers.example", s.rng.Intn(5000)),
			Spam:     true,
		}
		switch {
		case s.rng.Bool(s.cfg.UnfinishedRatio):
			c.Unfinished = true
		default:
			bounce := s.rng.Bool(s.cfg.BounceRatio / maxf(1-s.cfg.UnfinishedRatio, 1e-9))
			k := int(s.cfg.RcptSampler.Sample(s.rng))
			if k < 1 {
				k = 1
			}
			c.Rcpts = s.makeRcpts(k, bounce)
			c.SizeBytes = spamSize(s.rng)
		}
		conns = append(conns, c)
	}
	return conns
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// makeRcpts builds k recipient attempts; when bounce is true all of them
// are random guesses at nonexistent mailboxes.
func (s *Sinkhole) makeRcpts(k int, bounce bool) []Rcpt {
	rcpts := make([]Rcpt, 0, k)
	for j := 0; j < k; j++ {
		if bounce {
			rcpts = append(rcpts, Rcpt{
				Addr:  fmt.Sprintf("guess%06d@%s", s.rng.Intn(1000000), s.cfg.RcptDomain),
				Valid: false,
			})
		} else {
			rcpts = append(rcpts, Rcpt{
				Addr:  fmt.Sprintf("user%04d@%s", s.rng.Intn(s.cfg.ValidMailboxes), s.cfg.RcptDomain),
				Valid: true,
			})
		}
	}
	return rcpts
}

// spamSize draws a spam body size: small, tightly clustered (spam is
// templated); median ≈4 KB.
func spamSize(rng *sim.RNG) int {
	size := int(rng.LogNormal(8.3, 0.5))
	if size < 300 {
		size = 300
	}
	if size > 64<<10 {
		size = 64 << 10
	}
	return size
}
