package costmodel

import (
	"testing"
	"time"
)

func TestSwitchCostMonotone(t *testing.T) {
	// The load-dependent term grows with the runnable count and must be
	// material at 1000 runnable processes (it drives the §3 degradation
	// past 500 smtpd processes).
	if SwitchPerRunnable <= 0 || 1000*SwitchPerRunnable < SwitchBase {
		t.Fatalf("1000 runnable add %v to a %v switch", 1000*SwitchPerRunnable, SwitchBase)
	}
}

func TestFSModelOrdering(t *testing.T) {
	// The relationships the figures rely on, as published in the paper's
	// reference [16]: small-file creation is much more expensive on Ext3
	// than Reiser, and hard links are cheap on Reiser.
	if Ext3.Create <= Reiser.Create {
		t.Error("Ext3 create should cost more than Reiser create")
	}
	if Ext3.Link <= Reiser.Link {
		t.Error("Ext3 link should cost more than Reiser link")
	}
	if Ext3.Create < 3*Reiser.Create {
		t.Error("Ext3 create should be several times Reiser create")
	}
	for _, m := range []FSModel{Ext3, Reiser} {
		if m.Name == "" {
			t.Error("FS model missing name")
		}
		if m.Create <= 0 || m.AppendPerKB <= 0 || m.AppendFixed <= 0 ||
			m.Link <= 0 || m.Open <= 0 || m.Unlink <= 0 || m.ReadPerKB <= 0 {
			t.Errorf("%s: non-positive cost parameter", m.Name)
		}
		// Appending to an existing file must be cheaper than creating a
		// file; otherwise maildir would never lose to mbox.
		if m.AppendFixed >= m.Create {
			t.Errorf("%s: append overhead should undercut create", m.Name)
		}
	}
}

func TestHeadlineConstants(t *testing.T) {
	if NetRTT != 30*time.Millisecond {
		t.Error("Table 1 specifies a 30 ms emulated network delay")
	}
	if DNSBLCacheTTL != 24*time.Hour {
		t.Error("§7.2 uses a 24-hour DNSBL reply TTL")
	}
	if ForkCost <= ProcessWakeup {
		t.Error("fork must dominate a mere wakeup")
	}
	if EventLoopDispatch >= ProcessWakeup {
		t.Error("event-loop dispatch must be cheaper than a process wakeup")
	}
	if TaskHandoff <= EventLoopDispatch {
		t.Error("delegation includes descriptor transfer; costs more than a dispatch")
	}
}
