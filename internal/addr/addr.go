// Package addr provides the IPv4 address arithmetic used by the DNSBL
// subsystem: /24 and /25 prefix extraction, reversed-octet DNSBL query
// names (w.z.y.x.zone), and the 128-bit blacklist bitmap that a DNSBLv6
// server returns inside an AAAA record (§7.1 of the paper).
package addr

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"
)

// IPv4 is an IPv4 address in host byte order. Using a plain uint32 keeps
// the simulator's data structures compact and hashable.
type IPv4 uint32

// MakeIPv4 assembles an address from its four dotted-quad octets.
func MakeIPv4(a, b, c, d byte) IPv4 {
	return IPv4(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// ParseIPv4 parses a dotted-quad string such as "192.0.2.17". Each of the
// four parts is one to three characters: an optional sign and at least
// one decimal digit, with a value in 0–255 ("007", "+1" and "-0" parse).
// It allocates only to report an error.
func ParseIPv4(s string) (IPv4, error) {
	var ip uint32
	parts := 0
	for i := 0; i <= len(s); {
		end := i
		for end < len(s) && s[end] != '.' {
			end++
		}
		n, ok := parseOctet(s[i:end])
		if !ok || parts == 4 {
			return 0, fmt.Errorf("addr: %q is not a dotted quad", s)
		}
		ip = ip<<8 | n
		parts++
		i = end + 1
	}
	if parts != 4 {
		return 0, fmt.Errorf("addr: %q is not a dotted quad", s)
	}
	return IPv4(ip), nil
}

// parseOctet parses one dotted-quad part: what strconv.Atoi accepts in at
// most three characters, in 0–255.
func parseOctet(p string) (uint32, bool) {
	if p == "" || len(p) > 3 {
		return 0, false
	}
	neg := p[0] == '-'
	if p[0] == '+' || neg {
		p = p[1:]
		if p == "" {
			return 0, false
		}
	}
	var n uint32
	for i := 0; i < len(p); i++ {
		d := p[i] - '0'
		if d > 9 {
			return 0, false
		}
		n = n*10 + uint32(d)
	}
	if n > 255 || (neg && n != 0) {
		return 0, false
	}
	return n, true
}

// FromNetIP converts an IPv4 netip.Addr without formatting or parsing
// it; ok is false for any other address, an IPv4-mapped IPv6 one
// included (Unmap it first).
func FromNetIP(ip netip.Addr) (v4 IPv4, ok bool) {
	if !ip.Is4() {
		return 0, false
	}
	b := ip.As4()
	return MakeIPv4(b[0], b[1], b[2], b[3]), true
}

// NetIP returns the address as a netip.Addr.
func (ip IPv4) NetIP() netip.Addr {
	a, b, c, d := ip.Octets()
	return netip.AddrFrom4([4]byte{a, b, c, d})
}

// MustParseIPv4 is ParseIPv4 that panics on error, for tests and constants.
func MustParseIPv4(s string) IPv4 {
	ip, err := ParseIPv4(s)
	if err != nil {
		panic(err)
	}
	return ip
}

// Octets returns the address's four octets most-significant first.
func (ip IPv4) Octets() (a, b, c, d byte) {
	return byte(ip >> 24), byte(ip >> 16), byte(ip >> 8), byte(ip)
}

// String renders the address as a dotted quad.
func (ip IPv4) String() string {
	var buf [15]byte
	return string(ip.AppendTo(buf[:0]))
}

// AppendTo appends the address's dotted quad to b.
func (ip IPv4) AppendTo(b []byte) []byte {
	a, b1, c, d := ip.Octets()
	return appendQuad(b, a, b1, c, d)
}

// appendQuad appends "w.x.y.z".
func appendQuad(b []byte, w, x, y, z byte) []byte {
	b = strconv.AppendUint(b, uint64(w), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(x), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(y), 10)
	b = append(b, '.')
	return strconv.AppendUint(b, uint64(z), 10)
}

// NameBuf sizes a stack buffer to build a query name in; a longer zone
// still works, at the cost of one more allocation.
const NameBuf = 64

// appendName appends the query name "w.x.y.z.zone".
func appendName(b []byte, w, x, y, z byte, zone string) []byte {
	b = appendQuad(b, w, x, y, z)
	b = append(b, '.')
	return append(b, zone...)
}

// Prefix24 returns the address's /24 prefix (the address with its last
// octet cleared).
func (ip IPv4) Prefix24() Prefix { return Prefix{Addr: ip &^ 0xff, Bits: 24} }

// Prefix25 returns the address's /25 prefix. A /25 covers 128 addresses,
// which is exactly the width of an IPv6 address — the observation DNSBLv6
// exploits to ship a whole neighbourhood's blacklist status in one AAAA
// answer.
func (ip IPv4) Prefix25() Prefix { return Prefix{Addr: ip &^ 0x7f, Bits: 25} }

// PrefixN returns the address's /bits prefix for 0 ≤ bits ≤ 32.
func (ip IPv4) PrefixN(bits int) Prefix {
	if bits < 0 || bits > 32 {
		panic("addr: prefix bits out of range")
	}
	if bits == 0 {
		return Prefix{Addr: 0, Bits: 0}
	}
	mask := ^IPv4(0) << (32 - bits)
	return Prefix{Addr: ip & mask, Bits: bits}
}

// IndexIn25 returns the address's offset (0–127) within its /25 prefix.
func (ip IPv4) IndexIn25() int { return int(ip & 0x7f) }

// ReversedName returns the classic DNSBL query name for the address under
// the given zone: for IP x.y.z.w it returns "w.z.y.x.zone" (§4.3).
func (ip IPv4) ReversedName(zone string) string {
	var buf [NameBuf]byte
	return string(ip.AppendReversedName(buf[:0], zone))
}

// AppendReversedName appends ReversedName(zone) to b.
func (ip IPv4) AppendReversedName(b []byte, zone string) []byte {
	a, b1, c, d := ip.Octets()
	return appendName(b, d, c, b1, a, zone)
}

// V6Name returns the DNSBLv6 query name for the address under the given
// zone (§7.1): for IP x.y.z.w it is "h.z.y.x.zone" where h is 0 when
// w < 128 and 1 otherwise, selecting which /25 half of the /24 the bitmap
// should describe.
func (ip IPv4) V6Name(zone string) string {
	var buf [NameBuf]byte
	return string(ip.AppendV6Name(buf[:0], zone))
}

// AppendV6Name appends V6Name(zone) to b.
func (ip IPv4) AppendV6Name(b []byte, zone string) []byte {
	a, b1, c, d := ip.Octets()
	return appendName(b, d>>7, c, b1, a, zone)
}

// ParseReversedName inverts ReversedName: given "w.z.y.x.zone" and the
// zone suffix, it recovers x.y.z.w. The zone must match exactly.
func ParseReversedName(name, zone string) (IPv4, error) {
	suffix := "." + zone
	if !strings.HasSuffix(name, suffix) {
		return 0, fmt.Errorf("addr: name %q not under zone %q", name, zone)
	}
	rev := strings.TrimSuffix(name, suffix)
	parts := strings.Split(rev, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("addr: reversed name %q malformed", name)
	}
	return ParseIPv4(parts[3] + "." + parts[2] + "." + parts[1] + "." + parts[0])
}

// ParseV6Name inverts V6Name: given "h.z.y.x.zone" it recovers the /25
// prefix the query addresses.
func ParseV6Name(name, zone string) (Prefix, error) {
	suffix := "." + zone
	if !strings.HasSuffix(name, suffix) {
		return Prefix{}, fmt.Errorf("addr: name %q not under zone %q", name, zone)
	}
	rev := strings.TrimSuffix(name, suffix)
	parts := strings.Split(rev, ".")
	if len(parts) != 4 {
		return Prefix{}, fmt.Errorf("addr: v6 name %q malformed", name)
	}
	h, err := strconv.Atoi(parts[0])
	if err != nil || (h != 0 && h != 1) {
		return Prefix{}, fmt.Errorf("addr: v6 name %q has bad half selector", name)
	}
	base, err := ParseIPv4(parts[3] + "." + parts[2] + "." + parts[1] + ".0")
	if err != nil {
		return Prefix{}, err
	}
	if h == 1 {
		base |= 0x80
	}
	return Prefix{Addr: base, Bits: 25}, nil
}

// Prefix is an IPv4 prefix: the masked address plus the prefix length.
type Prefix struct {
	Addr IPv4
	Bits int
}

// String renders the prefix in CIDR notation.
func (p Prefix) String() string {
	var buf [18]byte
	return string(p.AppendTo(buf[:0]))
}

// AppendTo appends the prefix in CIDR notation to b.
func (p Prefix) AppendTo(b []byte) []byte {
	b = p.Addr.AppendTo(b)
	b = append(b, '/')
	return strconv.AppendInt(b, int64(p.Bits), 10)
}

// Size returns the number of addresses covered by the prefix.
func (p Prefix) Size() int { return 1 << (32 - p.Bits) }

// Nth returns the i-th address inside the prefix (0-based).
func (p Prefix) Nth(i int) IPv4 {
	if i < 0 || i >= p.Size() {
		panic("addr: index outside prefix")
	}
	return p.Addr + IPv4(i)
}

// Bitmap128 is the 128-bit blacklist bitmap a DNSBLv6 server encodes into
// an AAAA record: bit i set means address prefix.Nth(i) is blacklisted.
// Bit 0 is the most significant bit of byte 0, matching network order so
// the bitmap bytes are exactly the 16 bytes of the IPv6 answer address.
type Bitmap128 [16]byte

// Set marks bit i (0–127).
func (b *Bitmap128) Set(i int) {
	if i < 0 || i > 127 {
		panic("addr: bitmap index out of range")
	}
	b[i/8] |= 0x80 >> (i % 8)
}

// Get reports whether bit i is set.
func (b *Bitmap128) Get(i int) bool {
	if i < 0 || i > 127 {
		panic("addr: bitmap index out of range")
	}
	return b[i/8]&(0x80>>(i%8)) != 0
}

// Count returns the number of set bits.
func (b *Bitmap128) Count() int {
	n := 0
	for _, by := range b {
		for by != 0 {
			n += int(by & 1)
			by >>= 1
		}
	}
	return n
}

// String renders the bitmap as 32 hex digits, for logs and tests.
func (b Bitmap128) String() string {
	var sb strings.Builder
	for _, by := range b {
		fmt.Fprintf(&sb, "%02x", by)
	}
	return sb.String()
}
