package main

import (
	"net"
	"os"
	"os/signal"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/smtp"
)

// TestDomainIgnoresCase runs the binary's main against a shard: with
// -domain set, a recipient whose domain differs from it only in case is
// forwarded and stored, since the shard's access database folds case
// too; a recipient at another domain still draws a 550 at the director.
func TestDomainIgnoresCase(t *testing.T) {
	sh, err := cluster.StartShard(cluster.ShardSpec{Mailboxes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	// main stops on SIGTERM. The test takes the signal too, so one that
	// arrives before main is listening for it cannot end the process.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM)
	defer signal.Stop(sig)
	os.Args = []string{"maildirector", "-addr", addr, "-backend", "shard=" + sh.Addr,
		"-domain", cluster.DefaultDomain, "-policy=false", "-stats", "0", "-log", "off"}
	done := make(chan struct{})
	go func() { defer close(done); main() }()
	defer func() {
		for {
			syscall.Kill(os.Getpid(), syscall.SIGTERM) //nolint:errcheck // our own pid
			select {
			case <-done:
				return
			case <-time.After(50 * time.Millisecond):
			}
		}
	}()

	var c *smtp.Client
	for deadline := time.Now().Add(5 * time.Second); ; {
		if c, err = smtp.Dial(addr, time.Second); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("director never listened on %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer c.Quit() //nolint:errcheck
	if err := c.Helo("client.test"); err != nil {
		t.Fatal(err)
	}
	if err := c.Mail("s@remote.example"); err != nil {
		t.Fatal(err)
	}
	if r, err := c.Rcpt("user0001@DEPT.Example.EDU"); err != nil || r.Code != 250 {
		t.Fatalf("RCPT at the domain in upper case: %v, %v; want 250", r, err)
	}
	if r, err := c.Rcpt("user0001@example.org"); err != nil || r.Code != 550 {
		t.Fatalf("RCPT at another domain: %v, %v; want 550", r, err)
	}
	if err := c.Data([]byte("Subject: case\r\n\r\nx\r\n")); err != nil {
		t.Fatal(err)
	}
	if ids, err := sh.Store.List("user0001"); err != nil || len(ids) != 1 {
		t.Fatalf("user0001 lists %v, %v; want the one mail", ids, err)
	}
}
