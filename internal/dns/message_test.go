package dns

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeQuery(t *testing.T) {
	q := NewQuery(0x1234, "4.3.2.1.bl.example.org", TypeA)
	wire, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 0x1234 || got.Response || !got.RecursionDesired {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Questions) != 1 {
		t.Fatalf("questions = %d", len(got.Questions))
	}
	qq := got.Questions[0]
	if qq.Name != "4.3.2.1.bl.example.org" || qq.Type != TypeA || qq.Class != ClassIN {
		t.Fatalf("question = %+v", qq)
	}
}

func TestEncodeDecodeResponse(t *testing.T) {
	q := NewQuery(7, "name.example", TypeA)
	r := q.Reply()
	r.Answers = append(r.Answers, ARecord("name.example", 86400, 127, 0, 0, 2))
	r.RCode = RCodeNoError
	wire, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Response || !got.Authoritative {
		t.Fatal("response flags lost")
	}
	if len(got.Answers) != 1 {
		t.Fatalf("answers = %d", len(got.Answers))
	}
	a := got.Answers[0]
	if a.Type != TypeA || a.TTL != 86400 || !bytes.Equal(a.RData, []byte{127, 0, 0, 2}) {
		t.Fatalf("answer = %+v", a)
	}
}

func TestEncodeDecodeAAAA(t *testing.T) {
	var bitmap [16]byte
	bitmap[0] = 0x80
	bitmap[15] = 0x01
	q := NewQuery(9, "0.3.2.1.bl6.example", TypeAAAA)
	r := q.Reply()
	r.Answers = append(r.Answers, AAAARecord("0.3.2.1.bl6.example", 3600, bitmap))
	wire, _ := r.Encode()
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Answers) != 1 || got.Answers[0].Type != TypeAAAA {
		t.Fatal("AAAA answer lost")
	}
	if !bytes.Equal(got.Answers[0].RData, bitmap[:]) {
		t.Fatalf("bitmap = %x", got.Answers[0].RData)
	}
}

func TestTXTRecordRoundTrip(t *testing.T) {
	rr := TXTRecord("x.example", 60, "listed: spam source")
	txt, err := rr.TXT()
	if err != nil || txt != "listed: spam source" {
		t.Fatalf("TXT = %q, %v", txt, err)
	}
	if _, err := ARecord("x", 1, 1, 2, 3, 4).TXT(); err == nil {
		t.Fatal("TXT() on an A record should fail")
	}
	long := TXTRecord("x", 1, strings.Repeat("a", 300))
	txt, _ = long.TXT()
	if len(txt) != 255 {
		t.Fatalf("TXT should truncate to 255, got %d", len(txt))
	}
}

func TestEmptyAndRootName(t *testing.T) {
	for _, name := range []string{"", "."} {
		q := NewQuery(1, name, TypeA)
		wire, err := q.Encode()
		if err != nil {
			t.Fatalf("Encode(%q): %v", name, err)
		}
		got, err := Decode(wire)
		if err != nil {
			t.Fatalf("Decode(%q): %v", name, err)
		}
		if got.Questions[0].Name != "" {
			t.Fatalf("root name decoded as %q", got.Questions[0].Name)
		}
	}
}

func TestRCodeRoundTrip(t *testing.T) {
	for _, rc := range []RCode{RCodeNoError, RCodeNXDomain, RCodeServFail, RCodeRefused} {
		m := NewQuery(3, "x.example", TypeA).Reply()
		m.RCode = rc
		wire, _ := m.Encode()
		got, err := Decode(wire)
		if err != nil {
			t.Fatal(err)
		}
		if got.RCode != rc {
			t.Fatalf("rcode = %d, want %d", got.RCode, rc)
		}
	}
}

func TestNameLimits(t *testing.T) {
	if _, err := NewQuery(1, strings.Repeat("a", 64)+".example", TypeA).Encode(); err == nil {
		t.Error("64-byte label accepted")
	}
	longName := strings.Repeat("abcdefg.", 40) // > 255 bytes
	if _, err := NewQuery(1, longName, TypeA).Encode(); err == nil {
		t.Error("over-long name accepted")
	}
	if _, err := NewQuery(1, "a..b", TypeA).Encode(); err == nil {
		t.Error("empty label accepted")
	}
}

func TestDecodeCompressedName(t *testing.T) {
	// Hand-built message: question "a.bc" then an answer whose name is a
	// compression pointer back to the question name at offset 12.
	var wire []byte
	wire = append(wire, 0x00, 0x07) // ID
	wire = append(wire, 0x80, 0x00) // QR=1
	wire = append(wire, 0, 1, 0, 1, 0, 0, 0, 0)
	wire = append(wire, 1, 'a', 2, 'b', 'c', 0) // a.bc at offset 12
	wire = append(wire, 0, 1, 0, 1)             // A IN
	wire = append(wire, 0xc0, 12)               // pointer to offset 12
	wire = append(wire, 0, 1, 0, 1)             // A IN
	wire = append(wire, 0, 0, 0, 60)            // TTL
	wire = append(wire, 0, 4, 127, 0, 0, 1)     // RDATA
	m, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if m.Answers[0].Name != "a.bc" {
		t.Fatalf("compressed name = %q, want a.bc", m.Answers[0].Name)
	}
}

func TestDecodeCompressionLoopRejected(t *testing.T) {
	var wire []byte
	wire = append(wire, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0)
	wire = append(wire, 0xc0, 12) // pointer to itself
	wire = append(wire, 0, 1, 0, 1)
	if _, err := Decode(wire); err == nil {
		t.Fatal("self-referential pointer accepted")
	}
}

func TestDecodeTruncatedInputs(t *testing.T) {
	q := NewQuery(5, "some.name.example", TypeA)
	r := q.Reply()
	r.Answers = append(r.Answers, ARecord("some.name.example", 1, 1, 2, 3, 4))
	wire, _ := r.Encode()
	// Every proper prefix must fail cleanly, never panic.
	for i := 0; i < len(wire); i++ {
		if _, err := Decode(wire[:i]); err == nil {
			t.Fatalf("truncated message of %d bytes decoded", i)
		}
	}
}

func TestDecodeFuzzProperty(t *testing.T) {
	// Property: Decode never panics on arbitrary bytes.
	f := func(data []byte) bool {
		Decode(data) //nolint:errcheck // only checking for panics
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	// Property: any well-formed message round-trips.
	f := func(id uint16, labelSeed uint8, ttl uint32, rdata []byte) bool {
		if len(rdata) > 512 {
			rdata = rdata[:512]
		}
		name := strings.Repeat("x", int(labelSeed%60)+1) + ".example"
		m := NewQuery(id, name, TypeTXT)
		r := m.Reply()
		r.Answers = append(r.Answers, RR{Name: name, Type: TypeTXT, Class: ClassIN, TTL: ttl, RData: rdata})
		wire, err := r.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(wire)
		if err != nil {
			return false
		}
		return got.ID == id &&
			got.Questions[0].Name == name &&
			got.Answers[0].TTL == ttl &&
			bytes.Equal(got.Answers[0].RData, rdata)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		TypeA: "A", TypeAAAA: "AAAA", TypeTXT: "TXT", TypePTR: "PTR",
		TypeNS: "NS", Type(99): "TYPE99",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("Type(%d).String() = %q, want %q", typ, got, want)
		}
	}
}
