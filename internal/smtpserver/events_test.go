package smtpserver

import (
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/eventlog"
)

// waitEvents polls the ring until cond is satisfied over the smtpd.conn
// events, or fails.
func waitEvents(t *testing.T, log *eventlog.Log, cond func([]eventlog.Event) bool) []eventlog.Event {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		evs := log.Tail(eventlog.Filter{Name: "smtpd.conn"})
		if cond(evs) {
			return evs
		}
		if time.Now().After(deadline) {
			t.Fatalf("events never converged: %+v", evs)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func boolField(t *testing.T, e eventlog.Event, key string) bool {
	t.Helper()
	f, ok := e.Field(key)
	if !ok {
		t.Fatalf("event %s missing field %q", e.Name, key)
	}
	return f.Int() != 0
}

func strField(t *testing.T, e eventlog.Event, key string) string {
	t.Helper()
	f, ok := e.Field(key)
	if !ok {
		t.Fatalf("event %s missing field %q", e.Name, key)
	}
	return f.Str()
}

// TestConnEventContract pins the smtpd.conn schema telemetry relies on:
// worker reports whether a worker was occupied (always under vanilla,
// only on handoff under hybrid) and bounce marks undelivered endings.
func TestConnEventContract(t *testing.T) {
	forEachArch(t, func(t *testing.T, arch Architecture) {
		log := eventlog.New()
		env := startServer(t, arch, WithEventLog(log))

		// One good delivery...
		c := dial(t, env)
		c.Helo("h")
		if n, err := c.Send("s@remote.test", []string{"a@valid.test"}, []byte("ok\r\n")); err != nil || n != 1 {
			t.Fatalf("send = %d, %v", n, err)
		}
		c.Quit()
		// ...and one bounce that never names a valid recipient.
		b := dial(t, env)
		b.Helo("h")
		if n, _ := b.Send("spam@bot.test", []string{"guess@valid.other"}, []byte("x")); n != 0 {
			t.Fatalf("bounce delivered %d", n)
		}
		b.Quit()

		evs := waitEvents(t, log, func(evs []eventlog.Event) bool { return len(evs) == 2 })
		var good, bounce *eventlog.Event
		for i := range evs {
			if boolField(t, evs[i], "bounce") {
				bounce = &evs[i]
			} else {
				good = &evs[i]
			}
		}
		if good == nil || bounce == nil {
			t.Fatalf("want one good and one bounce event, got %+v", evs)
		}
		if got := strField(t, *good, "arch"); got != arch.String() {
			t.Fatalf("arch = %q, want %q", got, arch)
		}
		if strField(t, *good, "outcome") != "quit" || strField(t, *bounce, "outcome") != "quit" {
			t.Fatalf("outcomes = %q/%q, want quit/quit",
				strField(t, *good, "outcome"), strField(t, *bounce, "outcome"))
		}
		// The paper's handoff-savings contract: vanilla pays a worker for
		// everything; hybrid pays only for the trusted connection.
		if !boolField(t, *good, "worker") {
			t.Fatal("delivered connection must report worker=true")
		}
		if wantWorker := arch == Vanilla; boolField(t, *bounce, "worker") != wantWorker {
			t.Fatalf("bounce worker = %v, want %v under %s",
				boolField(t, *bounce, "worker"), wantWorker, arch)
		}
		if f, ok := good.Field("ip"); !ok {
			t.Fatal("conn event missing source ip")
		} else if ip, isIP := f.IP(); !isIP || ip != addr.MustParseIPv4("127.0.0.1") {
			t.Fatalf("conn event ip = %v (an IP field: %v), want 127.0.0.1", ip, isIP)
		}
	})
}
