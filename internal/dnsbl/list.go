// Package dnsbl implements DNS-based blacklisting as described in §4.3
// and §7 of the paper: the classic per-IP scheme (an A query for
// w.z.y.x.<zone> answered with 127.0.0.x) and the paper's prefix-based
// DNSBLv6 (an AAAA query whose 128-bit answer is the blacklist bitmap of
// the queried /25 prefix), plus the caching lookup client the mail server
// uses and the empirical latency model behind Figure 5.
package dnsbl

import (
	"sync"

	"repro/internal/addr"
)

// ListingCode is the last octet of a classic DNSBL answer (127.0.0.x):
// it encodes the kind of spamming activity observed from the IP.
type ListingCode byte

// Listing codes used by the built-in zones (the conventional CBL/XBL
// assignments).
const (
	CodeOpenRelay ListingCode = 2
	CodeDialup    ListingCode = 3
	CodeSpamSrc   ListingCode = 4
	CodeSmartHost ListingCode = 5
	CodeZombie    ListingCode = 6
	CodeDynamic   ListingCode = 7
)

// List is one blacklist database: a set of blacklisted IPv4 addresses
// with listing codes. It is safe for concurrent use — the DNS server
// resolves from many client goroutines while sinkhole feeds add entries.
type List struct {
	mu    sync.RWMutex
	zone  string
	codes map[addr.IPv4]ListingCode
}

// NewList returns an empty blacklist serving the given zone name
// (e.g. "cbl.abuseat.org").
func NewList(zone string) *List {
	return &List{zone: zone, codes: make(map[addr.IPv4]ListingCode)}
}

// Zone returns the DNS zone the list answers under.
func (l *List) Zone() string { return l.zone }

// Add blacklists ip with the given code. Re-adding updates the code.
func (l *List) Add(ip addr.IPv4, code ListingCode) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.codes[ip] = code
}

// Remove delists ip.
func (l *List) Remove(ip addr.IPv4) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.codes, ip)
}

// Lookup reports whether ip is blacklisted and with what code.
func (l *List) Lookup(ip addr.IPv4) (ListingCode, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	c, ok := l.codes[ip]
	return c, ok
}

// Len returns the number of blacklisted IPs.
func (l *List) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.codes)
}

// Bitmap returns the 128-bit blacklist bitmap for the /25 prefix
// containing ip — the payload of a DNSBLv6 answer (§7.1). Bit i is set
// iff prefix.Nth(i) is blacklisted. The bitmap identifies each address
// individually: no innocent neighbour is punished.
func (l *List) Bitmap(p addr.Prefix) addr.Bitmap128 {
	if p.Bits != 25 {
		panic("dnsbl: bitmap requires a /25 prefix")
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	var bm addr.Bitmap128
	for i := 0; i < 128; i++ {
		if _, ok := l.codes[p.Nth(i)]; ok {
			bm.Set(i)
		}
	}
	return bm
}
