package trace

import (
	"runtime"
	"testing"
)

// allocatedBy returns the heap bytes fn allocated. Both parsers under
// fuzz read what a peer sent, so no field may size an allocation the
// input cannot back.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocBound is the most a parser may allocate for an n-byte input: a
// small multiple (a field's string header is wider than a short field)
// plus slack for the runtime's own bookkeeping.
func allocBound(n int) uint64 { return 64*uint64(n) + 64<<10 }

// FuzzParseContext covers the XTRACE parameter of MAIL FROM, which any
// SMTP client can send.
func FuzzParseContext(f *testing.F) {
	c := Context{Hi: 0xdeadbeefcafef00d, Lo: 0x0123456789abcdef, Span: 0xfeedface}
	text := c.AppendText(nil)
	f.Add(text)
	f.Add(text[:len(text)-1])
	f.Add(Context{Lo: 1}.AppendText(nil))
	f.Add(Context{Span: 7}.AppendText(nil)) // all-zero trace id: not sampled, refused
	f.Add([]byte("DEADBEEFCAFEF00D0123456789ABCDEF-00000000FEEDFACE"))
	f.Add([]byte("deadbeefcafef00d0123456789abcdef_00000000feedface"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var got Context
		var ok bool
		if n := allocatedBy(func() { got, ok = ParseContext(data) }); n > allocBound(len(data)) {
			t.Fatalf("ParseContext allocated %d bytes for %d bytes of input", n, len(data))
		}
		if !ok {
			if got != (Context{}) {
				t.Fatalf("refused input left a context behind: %+v", got)
			}
			return
		}
		if !got.Valid() || got.Parent != 0 {
			t.Fatalf("parsed %+v: want a sampled context with no parent", got)
		}
		again, ok := ParseContext(got.AppendText(nil))
		if !ok || again != got {
			t.Fatalf("%+v re-formats and re-parses to %+v (ok=%v)", got, again, ok)
		}
	})
}

// FuzzParseMessageSpan covers the lines the cluster aggregator and
// mailtop fetch from a peer's /trace/{id}.
func FuzzParseMessageSpan(f *testing.F) {
	span := MessageSpan{
		Hi: 0xdeadbeefcafef00d, Lo: 0x0123456789abcdef, ID: 0xfeedface, Parent: 42,
		Node: "fe-1", Stage: MStageForward, Start: 1500, End: 4000, Note: "shard-a",
	}
	f.Add(span.String())
	span.Note, span.Parent = "", 0
	f.Add(span.String())
	f.Add(span.String() + " note=rate_limit=hit")
	f.Add(span.String() + " note=\xff")
	f.Add(span.String() + " start=12abc end=-9223372036854775808")
	// No trace id, and a repeated key making up the count of required ones.
	f.Add("mspan id=0000000000000000 parent=0000000000000000 stage= start=0 end=0 start=0")
	f.Add("span conn=42 stage=dialog start=1.5ms end=4ms note=quit")
	f.Add("")
	f.Fuzz(func(t *testing.T, line string) {
		var got MessageSpan
		var ok bool
		if n := allocatedBy(func() { got, ok = ParseMessageSpan(line) }); n > allocBound(len(line)) {
			t.Fatalf("ParseMessageSpan allocated %d bytes for a %d-byte line", n, len(line))
		}
		if !ok {
			return
		}
		again, ok := ParseMessageSpan(got.String())
		if !ok || again != got {
			t.Fatalf("%+v\nre-formats to %q\nand re-parses to %+v (ok=%v)", got, got.String(), again, ok)
		}
	})
}
