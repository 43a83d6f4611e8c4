// Package dns is a from-scratch implementation of the subset of RFC 1035
// the DNSBL subsystem needs: message encoding/decoding (with name
// compression on the decode path), a UDP server, a UDP client, an
// in-memory transport for deterministic tests, and a TTL cache.
//
// DNSBL answers are ordinary DNS: a classic blacklist check for IP
// x.y.z.w is an A query for w.z.y.x.<zone> answered with 127.0.0.x, and
// the paper's DNSBLv6 (§7.1) is an AAAA query whose 128-bit answer is the
// blacklist bitmap of the queried /25 prefix.
package dns

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// Type is a DNS RR/QTYPE code.
type Type uint16

// Supported record types.
const (
	TypeA    Type = 1
	TypeNS   Type = 2
	TypePTR  Type = 12
	TypeMX   Type = 15
	TypeTXT  Type = 16
	TypeAAAA Type = 28
)

// String renders the type mnemonic.
func (t Type) String() string {
	switch t {
	case TypeA:
		return "A"
	case TypeNS:
		return "NS"
	case TypePTR:
		return "PTR"
	case TypeMX:
		return "MX"
	case TypeTXT:
		return "TXT"
	case TypeAAAA:
		return "AAAA"
	default:
		return fmt.Sprintf("TYPE%d", uint16(t))
	}
}

// Class is a DNS class; only IN is used.
const ClassIN uint16 = 1

// RCode is a DNS response code.
type RCode uint8

// Response codes used by the DNSBL servers.
const (
	RCodeNoError  RCode = 0
	RCodeFormErr  RCode = 1
	RCodeServFail RCode = 2
	RCodeNXDomain RCode = 3
	RCodeNotImp   RCode = 4
	RCodeRefused  RCode = 5
)

// Header flag bits (within the 16-bit flags word).
const (
	flagQR = 1 << 15
	flagAA = 1 << 10
	flagTC = 1 << 9
	flagRD = 1 << 8
	flagRA = 1 << 7
)

// Question is one query tuple.
type Question struct {
	Name  string
	Type  Type
	Class uint16
}

// RR is a resource record. RData holds the raw wire-format payload (a 4-
// or 16-byte address for A/AAAA, a length-prefixed string for TXT).
type RR struct {
	Name  string
	Type  Type
	Class uint16
	TTL   uint32
	RData []byte
}

// Message is a DNS message.
type Message struct {
	ID                 uint16
	Response           bool
	Authoritative      bool
	Truncated          bool
	RecursionDesired   bool
	RecursionAvailable bool
	RCode              RCode

	Questions  []Question
	Answers    []RR
	Authority  []RR
	Additional []RR
}

// NewQuery builds a standard recursive query for one question.
func NewQuery(id uint16, name string, qtype Type) *Message {
	return &Message{
		ID:               id,
		RecursionDesired: true,
		Questions:        []Question{{Name: name, Type: qtype, Class: ClassIN}},
	}
}

// Reply builds a response skeleton mirroring the query's ID and question.
func (m *Message) Reply() *Message {
	r := &Message{
		ID:               m.ID,
		Response:         true,
		Authoritative:    true,
		RecursionDesired: m.RecursionDesired,
		Questions:        append([]Question(nil), m.Questions...),
	}
	return r
}

// MaxNameLen is the RFC 1035 limit on a domain name's wire length.
const MaxNameLen = 255

var (
	// ErrNameTooLong is returned for names exceeding MaxNameLen.
	ErrNameTooLong = errors.New("dns: name too long")
	// ErrCorrupt is returned for malformed wire data.
	ErrCorrupt = errors.New("dns: corrupt message")
)

// appendName encodes a dotted name as RFC 1035 labels (no compression —
// compression is optional for senders and our messages are small).
func appendName(buf []byte, name string) ([]byte, error) {
	name = strings.TrimSuffix(name, ".")
	if name != "" {
		if len(name)+2 > MaxNameLen {
			return nil, fmt.Errorf("%w: %q", ErrNameTooLong, name)
		}
		for _, label := range strings.Split(name, ".") {
			if label == "" {
				return nil, fmt.Errorf("%w: empty label in %q", ErrCorrupt, name)
			}
			if len(label) > 63 {
				return nil, fmt.Errorf("%w: label %q over 63 bytes", ErrNameTooLong, label)
			}
			buf = append(buf, byte(len(label)))
			buf = append(buf, label...)
		}
	}
	return append(buf, 0), nil
}

// Encode serializes the message to wire format.
func (m *Message) Encode() ([]byte, error) {
	buf := make([]byte, 0, 128)
	buf = binary.BigEndian.AppendUint16(buf, m.ID)
	var flags uint16
	if m.Response {
		flags |= flagQR
	}
	if m.Authoritative {
		flags |= flagAA
	}
	if m.Truncated {
		flags |= flagTC
	}
	if m.RecursionDesired {
		flags |= flagRD
	}
	if m.RecursionAvailable {
		flags |= flagRA
	}
	flags |= uint16(m.RCode) & 0xf
	buf = binary.BigEndian.AppendUint16(buf, flags)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Questions)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Answers)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Authority)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Additional)))
	var err error
	for _, q := range m.Questions {
		if buf, err = appendName(buf, q.Name); err != nil {
			return nil, err
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Type))
		class := q.Class
		if class == 0 {
			class = ClassIN
		}
		buf = binary.BigEndian.AppendUint16(buf, class)
	}
	for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for _, rr := range sec {
			if buf, err = appendRR(buf, rr); err != nil {
				return nil, err
			}
		}
	}
	return buf, nil
}

func appendRR(buf []byte, rr RR) ([]byte, error) {
	buf, err := appendName(buf, rr.Name)
	if err != nil {
		return nil, err
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Type))
	class := rr.Class
	if class == 0 {
		class = ClassIN
	}
	buf = binary.BigEndian.AppendUint16(buf, class)
	buf = binary.BigEndian.AppendUint32(buf, rr.TTL)
	if len(rr.RData) > 0xffff {
		return nil, fmt.Errorf("%w: rdata too long", ErrCorrupt)
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(rr.RData)))
	return append(buf, rr.RData...), nil
}

// decoder walks a wire-format message.
type decoder struct {
	data []byte
	pos  int
}

func (d *decoder) uint16() (uint16, error) {
	if d.pos+2 > len(d.data) {
		return 0, ErrCorrupt
	}
	v := binary.BigEndian.Uint16(d.data[d.pos:])
	d.pos += 2
	return v, nil
}

func (d *decoder) uint32() (uint32, error) {
	if d.pos+4 > len(d.data) {
		return 0, ErrCorrupt
	}
	v := binary.BigEndian.Uint32(d.data[d.pos:])
	d.pos += 4
	return v, nil
}

func (d *decoder) bytes(n int) ([]byte, error) {
	if n < 0 || d.pos+n > len(d.data) {
		return nil, ErrCorrupt
	}
	b := d.data[d.pos : d.pos+n]
	d.pos += n
	return b, nil
}

// name decodes a possibly-compressed domain name.
func (d *decoder) name() (string, error) {
	var labels []string
	pos := d.pos
	jumped := false
	hops := 0
	for {
		if pos >= len(d.data) {
			return "", ErrCorrupt
		}
		c := d.data[pos]
		switch {
		case c == 0:
			if !jumped {
				d.pos = pos + 1
			}
			return strings.Join(labels, "."), nil
		case c&0xc0 == 0xc0:
			if pos+1 >= len(d.data) {
				return "", ErrCorrupt
			}
			target := int(binary.BigEndian.Uint16(d.data[pos:]) & 0x3fff)
			if !jumped {
				d.pos = pos + 2
				jumped = true
			}
			if hops++; hops > 32 {
				return "", fmt.Errorf("%w: compression loop", ErrCorrupt)
			}
			if target >= pos {
				return "", fmt.Errorf("%w: forward compression pointer", ErrCorrupt)
			}
			pos = target
		case c&0xc0 != 0:
			return "", fmt.Errorf("%w: bad label type %#x", ErrCorrupt, c)
		default:
			end := pos + 1 + int(c)
			if end > len(d.data) {
				return "", ErrCorrupt
			}
			labels = append(labels, string(d.data[pos+1:end]))
			if len(labels) > 128 {
				return "", fmt.Errorf("%w: too many labels", ErrCorrupt)
			}
			pos = end
		}
	}
}

func (d *decoder) rr() (RR, error) {
	var rr RR
	var err error
	if rr.Name, err = d.name(); err != nil {
		return rr, err
	}
	t, err := d.uint16()
	if err != nil {
		return rr, err
	}
	rr.Type = Type(t)
	if rr.Class, err = d.uint16(); err != nil {
		return rr, err
	}
	if rr.TTL, err = d.uint32(); err != nil {
		return rr, err
	}
	n, err := d.uint16()
	if err != nil {
		return rr, err
	}
	rd, err := d.bytes(int(n))
	if err != nil {
		return rr, err
	}
	rr.RData = append([]byte(nil), rd...)
	return rr, nil
}

// Decode parses a wire-format message.
func Decode(data []byte) (*Message, error) {
	d := &decoder{data: data}
	m := &Message{}
	var err error
	if m.ID, err = d.uint16(); err != nil {
		return nil, err
	}
	flags, err := d.uint16()
	if err != nil {
		return nil, err
	}
	m.Response = flags&flagQR != 0
	m.Authoritative = flags&flagAA != 0
	m.Truncated = flags&flagTC != 0
	m.RecursionDesired = flags&flagRD != 0
	m.RecursionAvailable = flags&flagRA != 0
	m.RCode = RCode(flags & 0xf)
	counts := make([]uint16, 4)
	for i := range counts {
		if counts[i], err = d.uint16(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < int(counts[0]); i++ {
		var q Question
		if q.Name, err = d.name(); err != nil {
			return nil, err
		}
		t, err := d.uint16()
		if err != nil {
			return nil, err
		}
		q.Type = Type(t)
		if q.Class, err = d.uint16(); err != nil {
			return nil, err
		}
		m.Questions = append(m.Questions, q)
	}
	for sec, dst := range []*[]RR{&m.Answers, &m.Authority, &m.Additional} {
		for i := 0; i < int(counts[sec+1]); i++ {
			rr, err := d.rr()
			if err != nil {
				return nil, err
			}
			*dst = append(*dst, rr)
		}
	}
	return m, nil
}

// ARecord builds an A answer record.
func ARecord(name string, ttl uint32, a, b, c, d byte) RR {
	return RR{Name: name, Type: TypeA, Class: ClassIN, TTL: ttl, RData: []byte{a, b, c, d}}
}

// AAAARecord builds an AAAA answer record from 16 raw bytes.
func AAAARecord(name string, ttl uint32, addr [16]byte) RR {
	return RR{Name: name, Type: TypeAAAA, Class: ClassIN, TTL: ttl, RData: addr[:]}
}

// TXTRecord builds a TXT answer record.
func TXTRecord(name string, ttl uint32, text string) RR {
	if len(text) > 255 {
		text = text[:255]
	}
	rd := append([]byte{byte(len(text))}, text...)
	return RR{Name: name, Type: TypeTXT, Class: ClassIN, TTL: ttl, RData: rd}
}
