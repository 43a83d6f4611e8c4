// Quickstart: boot the spam-aware mail server (hybrid fork-after-trust
// architecture + MFS single-copy mailbox store) on a loopback port, send
// a couple of mails — one to multiple recipients, one random-guess bounce
// — and read the mailboxes back.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/cluster"
	"repro/internal/smtp"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// --- Server side: one full node — access DB, MFS store, delivery
	// agent, spool, queue, hybrid fork-after-trust front end (§5) — in
	// its production defaults, on an in-memory filesystem. ---
	node, err := cluster.StartShard(cluster.ShardSpec{Domain: "example.org"})
	if err != nil {
		return err
	}
	defer node.Close()
	for _, u := range []string{"alice@example.org", "bob@example.org", "carol@example.org"} {
		if err := node.DB.AddUser(u); err != nil {
			return err
		}
	}
	store := node.MFS()
	fmt.Println("server listening on", node.Addr)

	// --- Client side: one spam-style multi-recipient mail... ---
	client, err := smtp.Dial(node.Addr, 5*time.Second)
	if err != nil {
		return err
	}
	if err := client.Helo("laptop.example.net"); err != nil {
		return err
	}
	accepted, err := client.Send("newsletter@lists.example.net",
		[]string{"alice@example.org", "bob@example.org", "carol@example.org"},
		[]byte("Subject: meeting notes\r\n\r\nSingle copy on disk, three mailboxes.\r\n"))
	if err != nil {
		return err
	}
	fmt.Printf("multi-recipient mail: %d recipients accepted\n", accepted)

	// ...and one random-guessing bounce (§4.1): every recipient draws
	// "550 User unknown", so the hybrid front end never commits a worker.
	accepted, err = client.Send("spam@bot.example.net",
		[]string{"admin@example.org", "test@example.org"}, []byte("junk"))
	if err != nil {
		return err
	}
	fmt.Printf("random-guess mail:    %d recipients accepted (bounced)\n", accepted)
	if err := client.Quit(); err != nil {
		return err
	}

	if !node.Queue.WaitIdle(5 * time.Second) {
		return fmt.Errorf("queue never drained")
	}

	// --- Read the mailboxes back through the store API. ---
	for _, user := range []string{"alice", "bob", "carol"} {
		ids, err := store.List(user)
		if err != nil {
			return fmt.Errorf("list %s: %w", user, err)
		}
		body, err := store.Read(user, ids[0])
		if err != nil {
			return err
		}
		fmt.Printf("%s got %d mail(s); first is %d bytes\n", user, len(ids), len(body))
	}

	// MFS stored the three-recipient mail once.
	st := store.Store().Stats()
	fmt.Printf("MFS shared store: %d record(s) serving %d mailbox pointer(s)\n",
		st.SharedRecords, st.SharedRefs)

	stats := node.Server.Stats()
	fmt.Printf("server: %d connection(s), %d delegated to workers, %d recipients rejected with 550\n",
		stats.Connections, stats.Handoffs, stats.RcptRejected)
	return nil
}
