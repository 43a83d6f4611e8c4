package trace

import (
	"time"

	"repro/internal/addr"
	"repro/internal/metrics"
)

// Stats summarizes a trace.
type Stats struct {
	Connections int
	UniqueIPs   int
	UniquePref  int // unique /24 prefixes
	Bounces     int // bounce connections (§4.1)
	Unfinished  int
	Delivering  int // connections that deliver ≥1 mail
	SpamConns   int
	TotalRcpts  int
	ValidRcpts  int
}

// Summarize computes trace-wide statistics.
func Summarize(conns []Conn) Stats {
	st := Stats{Connections: len(conns)}
	ips := make(map[addr.IPv4]bool)
	prefs := make(map[addr.Prefix]bool)
	for i := range conns {
		c := &conns[i]
		ips[c.ClientIP] = true
		prefs[c.ClientIP.Prefix24()] = true
		if c.Unfinished {
			st.Unfinished++
		}
		if c.IsBounce() {
			st.Bounces++
		}
		if c.Delivers() {
			st.Delivering++
		}
		if c.Spam {
			st.SpamConns++
		}
		st.TotalRcpts += len(c.Rcpts)
		st.ValidRcpts += c.ValidRcpts()
	}
	st.UniqueIPs = len(ips)
	st.UniquePref = len(prefs)
	return st
}

// BounceRatio returns bounce connections over completed connections.
func (s Stats) BounceRatio() float64 {
	completed := s.Connections - s.Unfinished
	if completed == 0 {
		return 0
	}
	return float64(s.Bounces) / float64(completed)
}

// UnfinishedRatio returns unfinished connections over all connections.
func (s Stats) UnfinishedRatio() float64 {
	if s.Connections == 0 {
		return 0
	}
	return float64(s.Unfinished) / float64(s.Connections)
}

// MeanRcpts returns the mean recipients per delivering connection.
func (s Stats) MeanRcpts() float64 {
	if s.Delivering == 0 {
		return 0
	}
	return float64(s.ValidRcpts) / float64(s.Delivering)
}

// RcptSample returns the recipients-per-connection observations for
// delivering connections — the Figure 4 population.
func RcptSample(conns []Conn) *metrics.Sample {
	s := metrics.NewSample(len(conns))
	for i := range conns {
		if len(conns[i].Rcpts) > 0 && !conns[i].Unfinished {
			s.Observe(float64(len(conns[i].Rcpts)))
		}
	}
	return s
}

// Interarrivals computes Figure 13's two distributions over a trace:
// the gaps between consecutive connections from the same IP and from the
// same /24 prefix, in seconds. Only origins appearing more than once
// contribute.
func Interarrivals(conns []Conn) (byIP, byPrefix *metrics.Sample) {
	byIP = metrics.NewSample(len(conns))
	byPrefix = metrics.NewSample(len(conns))
	lastIP := make(map[addr.IPv4]time.Duration)
	lastPref := make(map[addr.Prefix]time.Duration)
	for i := range conns {
		c := &conns[i]
		if prev, ok := lastIP[c.ClientIP]; ok {
			byIP.Observe((c.At - prev).Seconds())
		}
		lastIP[c.ClientIP] = c.At
		p := c.ClientIP.Prefix24()
		if prev, ok := lastPref[p]; ok {
			byPrefix.Observe((c.At - prev).Seconds())
		}
		lastPref[p] = c.At
	}
	return byIP, byPrefix
}

// RepeatRatios measures temporal source locality: the fraction of
// connections whose client IP — and whose /25 prefix — already
// connected within the preceding window of trace time. This is the
// revisit probability that per-source policy state (rate buckets,
// reputation scores, greylist entries) exploits: a source seen again
// inside the window hits warm state. Figure 13's observation that
// locality is stronger at prefix granularity shows up as the prefix
// ratio exceeding the per-IP ratio.
func RepeatRatios(conns []Conn, window time.Duration) (ipRatio, prefixRatio float64) {
	if len(conns) == 0 {
		return 0, 0
	}
	lastIP := make(map[addr.IPv4]time.Duration)
	lastPref := make(map[addr.Prefix]time.Duration)
	var ipHits, prefHits int
	for i := range conns {
		c := &conns[i]
		if prev, ok := lastIP[c.ClientIP]; ok && c.At-prev <= window {
			ipHits++
		}
		lastIP[c.ClientIP] = c.At
		p := c.ClientIP.Prefix25()
		if prev, ok := lastPref[p]; ok && c.At-prev <= window {
			prefHits++
		}
		lastPref[p] = c.At
	}
	n := float64(len(conns))
	return float64(ipHits) / n, float64(prefHits) / n
}

// FractionAbove returns the fraction of counts strictly greater than x.
func FractionAbove(counts []int, x int) float64 {
	if len(counts) == 0 {
		return 0
	}
	n := 0
	for _, v := range counts {
		if v > x {
			n++
		}
	}
	return float64(n) / float64(len(counts))
}
