package addr

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestMakeAndOctets(t *testing.T) {
	ip := MakeIPv4(192, 0, 2, 17)
	a, b, c, d := ip.Octets()
	if a != 192 || b != 0 || c != 2 || d != 17 {
		t.Fatalf("octets = %d.%d.%d.%d, want 192.0.2.17", a, b, c, d)
	}
	if ip.String() != "192.0.2.17" {
		t.Fatalf("String = %q", ip.String())
	}
}

func TestParseIPv4(t *testing.T) {
	cases := []struct {
		in   string
		want IPv4
		ok   bool
	}{
		{"0.0.0.0", 0, true},
		{"255.255.255.255", 0xffffffff, true},
		{"10.1.2.3", MakeIPv4(10, 1, 2, 3), true},
		{"256.0.0.1", 0, false},
		{"1.2.3", 0, false},
		{"1.2.3.4.5", 0, false},
		{"a.b.c.d", 0, false},
		{"", 0, false},
		{"1..2.3", 0, false},
		{"1.2.3.0004", 0, false},
		{"-1.2.3.4", 0, false},
	}
	for _, c := range cases {
		got, err := ParseIPv4(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseIPv4(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseIPv4(%q) succeeded, want error", c.in)
		}
	}
}

// parseIPv4Split is the string parser ParseIPv4 replaced, kept as the
// oracle FuzzParseIPv4 holds the byte scanner to.
func parseIPv4Split(s string) (IPv4, bool) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, false
	}
	var ip uint32
	for _, p := range parts {
		if p == "" || len(p) > 3 {
			return 0, false
		}
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 || n > 255 {
			return 0, false
		}
		ip = ip<<8 | uint32(n)
	}
	return IPv4(ip), true
}

// FuzzParseIPv4: the byte scanner accepts exactly what the Split/Atoi
// parser accepted, with the same value.
func FuzzParseIPv4(f *testing.F) {
	for _, s := range []string{
		"192.0.2.17", "0.0.0.0", "255.255.255.255",
		"010.001.000.007", "00.0.00.0", // leading zeros
		"+1.2.3.4", "1.+2.3.4", "-0.0.0.0", "-1.2.3.4", "+.1.2.3", "1.2.3.-",
		"1..2.3", ".1.2.3", "1.2.3.", "", "...", // empty octets
		"1.2.3.0004", "1000.2.3.4", // 4-digit octets
		"256.0.0.1", "1.2.3.256", "999.1.1.1",
		"1.2.3", "1.2.3.4.5", // 3 and 5 parts
		"1.2.3.4.", "1.2.3.4..", // trailing dots
		"a.b.c.d", "1.2.3.4 ", " 1.2.3.4", "1.2.3.4\x00", "1_0.2.3.4", "0x1.2.3.4",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParseIPv4(s)
		want, ok := parseIPv4Split(s)
		if (err == nil) != ok || (ok && got != want) {
			t.Fatalf("ParseIPv4(%q) = %v, %v; the Split/Atoi parser gives %v, accepted %v", s, got, err, want, ok)
		}
	})
}

// TestParseIPv4AllocatesNothing: a peer address parses without touching
// the heap; only an error is allocated.
func TestParseIPv4AllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { ParseIPv4("198.51.100.217") }); n != 0 {
		t.Fatalf("ParseIPv4 allocates %v objects, want 0", n)
	}
}

// TestFormattingMatchesSprintf: the strconv renderings are byte-identical
// to the Sprintf forms they replaced, and each allocates only its result.
func TestFormattingMatchesSprintf(t *testing.T) {
	const zone = "bl6.example.org"
	for _, ip := range []IPv4{0, 0xffffffff, MakeIPv4(1, 2, 3, 4), MakeIPv4(10, 0, 99, 127),
		MakeIPv4(10, 0, 99, 128), MakeIPv4(192, 168, 100, 255), MakeIPv4(9, 10, 100, 99)} {
		a, b, c, d := ip.Octets()
		h := 0
		if d >= 128 {
			h = 1
		}
		cases := []struct{ name, got, want string }{
			{"String", ip.String(), fmt.Sprintf("%d.%d.%d.%d", a, b, c, d)},
			{"ReversedName", ip.ReversedName(zone), fmt.Sprintf("%d.%d.%d.%d.%s", d, c, b, a, zone)},
			{"V6Name", ip.V6Name(zone), fmt.Sprintf("%d.%d.%d.%d.%s", h, c, b, a, zone)},
			{"Prefix24", ip.Prefix24().String(), fmt.Sprintf("%s/%d", ip.Prefix24().Addr, 24)},
			{"Prefix25", ip.Prefix25().String(), fmt.Sprintf("%s/%d", ip.Prefix25().Addr, 25)},
			{"PrefixN(0)", ip.PrefixN(0).String(), "0.0.0.0/0"},
			{"PrefixN(32)", ip.PrefixN(32).String(), fmt.Sprintf("%d.%d.%d.%d/32", a, b, c, d)},
		}
		for _, tc := range cases {
			if tc.got != tc.want {
				t.Errorf("%v %s = %q, want %q", ip, tc.name, tc.got, tc.want)
			}
		}
	}
	ip := MakeIPv4(198, 51, 100, 217)
	for name, fn := range map[string]func(){
		"String":        func() { _ = ip.String() },
		"ReversedName":  func() { _ = ip.ReversedName(zone) },
		"V6Name":        func() { _ = ip.V6Name(zone) },
		"Prefix.String": func() { _ = ip.Prefix25().String() },
	} {
		if n := testing.AllocsPerRun(100, fn); n > 1 {
			t.Errorf("%s allocates %v objects, want 1", name, n)
		}
	}
}

func TestParseRoundTripProperty(t *testing.T) {
	f := func(raw uint32) bool {
		ip := IPv4(raw)
		back, err := ParseIPv4(ip.String())
		return err == nil && back == ip
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParseIPv4 did not panic")
		}
	}()
	MustParseIPv4("bogus")
}

func TestPrefixes(t *testing.T) {
	ip := MustParseIPv4("10.20.30.200")
	if got := ip.Prefix24().String(); got != "10.20.30.0/24" {
		t.Errorf("Prefix24 = %s", got)
	}
	if got := ip.Prefix25().String(); got != "10.20.30.128/25" {
		t.Errorf("Prefix25 = %s", got)
	}
	low := MustParseIPv4("10.20.30.5")
	if got := low.Prefix25().String(); got != "10.20.30.0/25" {
		t.Errorf("Prefix25 low half = %s", got)
	}
	if got := ip.PrefixN(16).String(); got != "10.20.0.0/16" {
		t.Errorf("PrefixN(16) = %s", got)
	}
	if got := ip.PrefixN(0).String(); got != "0.0.0.0/0" {
		t.Errorf("PrefixN(0) = %s", got)
	}
	if got := ip.PrefixN(32).String(); got != "10.20.30.200/32" {
		t.Errorf("PrefixN(32) = %s", got)
	}
}

func TestPrefixNOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PrefixN(33) did not panic")
		}
	}()
	IPv4(0).PrefixN(33)
}

func TestIndexIn25(t *testing.T) {
	if got := MustParseIPv4("1.2.3.0").IndexIn25(); got != 0 {
		t.Errorf("IndexIn25(.0) = %d", got)
	}
	if got := MustParseIPv4("1.2.3.127").IndexIn25(); got != 127 {
		t.Errorf("IndexIn25(.127) = %d", got)
	}
	if got := MustParseIPv4("1.2.3.128").IndexIn25(); got != 0 {
		t.Errorf("IndexIn25(.128) = %d", got)
	}
	if got := MustParseIPv4("1.2.3.255").IndexIn25(); got != 127 {
		t.Errorf("IndexIn25(.255) = %d", got)
	}
}

func TestPrefixContains(t *testing.T) {
	p := MustParseIPv4("10.20.30.128").Prefix25()
	if !p.Contains(MustParseIPv4("10.20.30.200")) {
		t.Error("prefix should contain 10.20.30.200")
	}
	if p.Contains(MustParseIPv4("10.20.30.5")) {
		t.Error("prefix should not contain 10.20.30.5")
	}
	all := Prefix{Addr: 0, Bits: 0}
	if !all.Contains(MustParseIPv4("255.1.2.3")) {
		t.Error("/0 should contain everything")
	}
}

func TestPrefixSizeNth(t *testing.T) {
	p := MustParseIPv4("10.0.0.0").Prefix25()
	if p.Size() != 128 {
		t.Fatalf("size = %d, want 128", p.Size())
	}
	if got := p.Nth(0); got != MustParseIPv4("10.0.0.0") {
		t.Errorf("Nth(0) = %s", got)
	}
	if got := p.Nth(127); got != MustParseIPv4("10.0.0.127") {
		t.Errorf("Nth(127) = %s", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Nth(128) did not panic")
		}
	}()
	p.Nth(128)
}

func TestReversedName(t *testing.T) {
	ip := MustParseIPv4("1.2.3.4")
	got := ip.ReversedName("bl.example.org")
	if got != "4.3.2.1.bl.example.org" {
		t.Fatalf("ReversedName = %q", got)
	}
	back, err := ParseReversedName(got, "bl.example.org")
	if err != nil || back != ip {
		t.Fatalf("ParseReversedName = %v, %v", back, err)
	}
}

func TestParseReversedNameErrors(t *testing.T) {
	for _, name := range []string{
		"4.3.2.1.other.zone",
		"3.2.1.bl.example.org",
		"x.3.2.1.bl.example.org",
	} {
		if _, err := ParseReversedName(name, "bl.example.org"); err == nil {
			t.Errorf("ParseReversedName(%q) succeeded, want error", name)
		}
	}
}

func TestV6Name(t *testing.T) {
	cases := []struct {
		ip   string
		want string
	}{
		{"1.2.3.4", "0.3.2.1.bl6.example.org"},
		{"1.2.3.127", "0.3.2.1.bl6.example.org"},
		{"1.2.3.128", "1.3.2.1.bl6.example.org"},
		{"1.2.3.255", "1.3.2.1.bl6.example.org"},
	}
	for _, c := range cases {
		if got := MustParseIPv4(c.ip).V6Name("bl6.example.org"); got != c.want {
			t.Errorf("V6Name(%s) = %q, want %q", c.ip, got, c.want)
		}
	}
}

func TestParseV6Name(t *testing.T) {
	p, err := ParseV6Name("1.3.2.1.bl6.example.org", "bl6.example.org")
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != "1.2.3.128/25" {
		t.Fatalf("prefix = %s, want 1.2.3.128/25", p)
	}
	p, err = ParseV6Name("0.3.2.1.bl6.example.org", "bl6.example.org")
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != "1.2.3.0/25" {
		t.Fatalf("prefix = %s, want 1.2.3.0/25", p)
	}
}

func TestParseV6NameErrors(t *testing.T) {
	for _, name := range []string{
		"2.3.2.1.bl6.example.org", // half selector must be 0/1
		"1.3.2.1.wrong.zone",
		"1.3.2.bl6.example.org",
		"1.3.2.999.bl6.example.org",
	} {
		if _, err := ParseV6Name(name, "bl6.example.org"); err == nil {
			t.Errorf("ParseV6Name(%q) succeeded, want error", name)
		}
	}
}

func TestV6NameRoundTripProperty(t *testing.T) {
	// Property: for any IP, its V6Name parses back to the /25 prefix that
	// contains it.
	f := func(raw uint32) bool {
		ip := IPv4(raw)
		p, err := ParseV6Name(ip.V6Name("z.example"), "z.example")
		return err == nil && p == ip.Prefix25() && p.Contains(ip)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitmap128(t *testing.T) {
	var b Bitmap128
	if !b.IsZero() || b.Count() != 0 {
		t.Fatal("zero bitmap should be empty")
	}
	b.Set(0)
	b.Set(127)
	b.Set(64)
	if b.IsZero() {
		t.Fatal("bitmap with bits should not be zero")
	}
	if b.Count() != 3 {
		t.Fatalf("count = %d, want 3", b.Count())
	}
	for _, i := range []int{0, 64, 127} {
		if !b.Get(i) {
			t.Errorf("bit %d should be set", i)
		}
	}
	if b.Get(1) || b.Get(126) {
		t.Error("unset bits read as set")
	}
	b.Clear(64)
	if b.Get(64) || b.Count() != 2 {
		t.Error("Clear failed")
	}
	// Bit 0 is the MSB of byte 0 (network order).
	if b[0] != 0x80 {
		t.Errorf("byte 0 = %#x, want 0x80", b[0])
	}
	if b[15] != 0x01 {
		t.Errorf("byte 15 = %#x, want 0x01", b[15])
	}
}

func TestBitmapBoundsPanic(t *testing.T) {
	var b Bitmap128
	for _, f := range []func(){
		func() { b.Set(-1) },
		func() { b.Set(128) },
		func() { b.Get(128) },
		func() { b.Clear(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range bitmap op did not panic")
				}
			}()
			f()
		}()
	}
}

func TestBitmapSetGetProperty(t *testing.T) {
	f := func(bits []uint8) bool {
		var b Bitmap128
		seen := map[int]bool{}
		for _, raw := range bits {
			i := int(raw) % 128
			b.Set(i)
			seen[i] = true
		}
		for i := 0; i < 128; i++ {
			if b.Get(i) != seen[i] {
				return false
			}
		}
		return b.Count() == len(seen)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitmapString(t *testing.T) {
	var b Bitmap128
	b.Set(0)
	s := b.String()
	if len(s) != 32 {
		t.Fatalf("len = %d, want 32", len(s))
	}
	if s[:2] != "80" {
		t.Fatalf("first byte hex = %q, want 80", s[:2])
	}
}
