package spool

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/trace"
)

func FuzzDecodeEnvelope(f *testing.F) {
	v2, err := encodeEnvelope(Envelope{
		ID: "Q0000000000000001", Sender: "a@x.test", Rcpts: []string{"b@y.test", "c@y.test"},
		Attempts: 2, NotBefore: time.Unix(1700000000, 0),
		Trace: trace.Context{Hi: 1, Lo: 2, Span: 3},
	})
	if err != nil {
		f.Fatal(err)
	}
	// A v1 frame is the v2 encoding minus the 24-byte trace tail.
	v1 := append([]byte(nil), v2[:len(v2)-24]...)
	v1[0] = envVersionV1
	f.Add(v2)
	f.Add(v1)
	f.Add(v2[:len(v2)-7]) // torn trace tail
	f.Add([]byte{})
	// Null sender, no id, and a recipient count the frame cannot hold.
	f.Add(append(append([]byte{envVersion}, make([]byte, 4+8+2+2)...), 0xff, 0xff))
	f.Fuzz(func(t *testing.T, p []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		env, err := decodeEnvelope(p)
		runtime.ReadMemStats(&after)
		// These are post-crash bytes: a count field must never size an
		// allocation the frame cannot back.
		if got := after.TotalAlloc - before.TotalAlloc; got > 64*uint64(len(p))+64<<10 {
			t.Fatalf("decodeEnvelope allocated %d bytes for a %d-byte frame", got, len(p))
		}
		if err != nil {
			if !errors.Is(err, ErrTorn) {
				t.Fatalf("error %v is not ErrTorn", err)
			}
			return
		}
		// Whatever decodes survives a trip through today's encoder.
		enc, err := encodeEnvelope(env)
		if err != nil {
			t.Fatal(err)
		}
		again, err := decodeEnvelope(enc)
		if err != nil || !reflect.DeepEqual(again, env) {
			t.Fatalf("re-encoded envelope decodes to %+v (%v), want %+v", again, err, env)
		}
	})
}
