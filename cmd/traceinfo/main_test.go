package main

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/admin"
	"repro/internal/eventlog"
	"repro/internal/metrics"
)

// TestFollowEvents drives the -follow loop against a live admin
// endpoint: events emitted after the first poll round must still be
// printed (the since-cursor advances), and nothing is printed twice.
func TestFollowEvents(t *testing.T) {
	log := eventlog.New(eventlog.WithLevel(eventlog.LevelDebug))
	srv := httptest.NewServer(admin.NewHandler(metrics.NewRegistry(), nil, admin.WithEvents(log)))
	defer srv.Close()

	log.Info("smtpd.conn", 1, eventlog.Str("outcome", "quit"))
	log.Warn("dnsbl.stale", 2, eventlog.Str("zone", "bl.test"))

	var out strings.Builder
	var once sync.Once
	rounds := 0
	err := followEvents(srv.URL, "", 0, "", time.Millisecond, &out, func(printed int) bool {
		rounds++
		// After the first round drains the backlog, emit one more event
		// the cursor must pick up on a later round.
		once.Do(func() { log.Info("smtpd.conn", 3, eventlog.Str("outcome", "dropped")) })
		return printed >= 3 || rounds > 100
	})
	if err != nil {
		t.Fatalf("followEvents: %v", err)
	}

	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("printed %d lines, want 3:\n%s", len(lines), out.String())
	}
	seen := map[string]bool{}
	for _, line := range lines {
		e, err := eventlog.ParseEvent(line)
		if err != nil {
			t.Fatalf("unparseable output line %q: %v", line, err)
		}
		key := line
		if seen[key] {
			t.Fatalf("duplicate line %q", line)
		}
		seen[key] = true
		if e.Name != "smtpd.conn" && e.Name != "dnsbl.stale" {
			t.Fatalf("unexpected event %q", e.Name)
		}
	}
	if !strings.Contains(out.String(), "outcome=dropped") {
		t.Fatalf("late event never tailed:\n%s", out.String())
	}
}

// TestFollowEventsFiltered forwards filters to the endpoint.
func TestFollowEventsFiltered(t *testing.T) {
	log := eventlog.New(eventlog.WithLevel(eventlog.LevelDebug))
	srv := httptest.NewServer(admin.NewHandler(metrics.NewRegistry(), nil, admin.WithEvents(log)))
	defer srv.Close()

	log.Debug("dnsbl.lookup", 7, eventlog.Bool("hit", true))
	log.Warn("queue.hold", 7, eventlog.Str("id", "m1"))
	log.Warn("queue.hold", 8, eventlog.Str("id", "m2"))

	var out strings.Builder
	err := followEvents(srv.URL, "warn", 7, "", time.Millisecond, &out, func(printed int) bool { return true })
	if err != nil {
		t.Fatalf("followEvents: %v", err)
	}
	body := out.String()
	if strings.Count(body, "evt ") != 1 || !strings.Contains(body, "id=m1") {
		t.Fatalf("filtered follow printed:\n%s", body)
	}

	if err := followEvents(srv.URL, "nonsense", 0, "", time.Millisecond, &out, nil); err == nil {
		t.Fatal("bad level must fail before polling")
	}
}
