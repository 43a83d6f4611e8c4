package smtpserver

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/smtp"
)

// smtpDial is dial without the testing.T, usable from client goroutines.
func smtpDial(addr string) (*smtp.Client, error) {
	return smtp.Dial(addr, 5*time.Second)
}

func TestAcceptShardsServeBothArchitectures(t *testing.T) {
	forEachArch(t, func(t *testing.T, arch Architecture) {
		env := startServer(t, arch, WithMaxWorkers(8), WithAcceptShards(3))
		const clients = 12
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				client, err := smtpDial(env.addr)
				if err != nil {
					errs <- err
					return
				}
				defer client.Abort() //nolint:errcheck
				if err := client.Helo("c.test"); err != nil {
					errs <- err
					return
				}
				if _, err := client.Send("s@remote.test",
					[]string{fmt.Sprintf("user%d@valid.test", i)},
					[]byte("sharded\r\n")); err != nil {
					errs <- err
					return
				}
				errs <- client.Quit()
			}(i)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		waitStats(t, env.srv, func(st Stats) bool { return st.MailsAccepted >= clients })
		if got := len(env.captured()); got != clients {
			t.Fatalf("delivered = %d, want %d", got, clients)
		}
		if st := env.srv.Stats(); st.Connections < clients {
			t.Fatalf("connections = %d, want >= %d", st.Connections, clients)
		}
	})
}

func TestAcceptShardsFallbackSharedListener(t *testing.T) {
	// Four accept loops on one listener sharing startServer's four worker
	// slots: behaviour must be a single accept loop's.
	env := startServer(t, Hybrid, WithAcceptShards(4))
	for i := 0; i < 6; i++ {
		client := dial(t, env)
		if err := client.Helo("c.test"); err != nil {
			t.Fatal(err)
		}
		if _, err := client.Send("s@r.test", []string{"u@valid.test"}, []byte("m")); err != nil {
			t.Fatal(err)
		}
		if err := client.Quit(); err != nil {
			t.Fatal(err)
		}
	}
	waitStats(t, env.srv, func(st Stats) bool { return st.MailsAccepted >= 6 })
}
