// Package repro is a from-scratch Go reproduction of "The Case for
// Spam-Aware High Performance Mail Server Architecture" (Pathak, Jafri,
// Hu — ICDCS 2009).
//
// The paper redesigns three components of a postfix-class mail server
// around the observation that spam is the common-case workload:
//
//   - a "fork-after-trust" hybrid concurrency architecture that keeps
//     bounce and abandoned connections in a cheap event loop and commits
//     an smtpd worker only after the first valid RCPT TO (§5);
//   - MFS, a single-copy record-oriented mailbox file system that stores
//     a multi-recipient mail once and gives each mailbox a reference-
//     counted pointer record (§6);
//   - prefix-based DNSBL lookups ("DNSBLv6") where one AAAA answer
//     carries the blacklist bitmap of an entire /25 (§7).
//
// The runnable system lives under internal/: an SMTP protocol stack and
// server (both architectures, real TCP), the MFS library and three
// baseline mailbox stores, an RFC 1035 DNS codec with DNSBL servers and
// caching clients, a postfix-style queue pipeline, seeded workload
// generators reproducing the paper's trace statistics, and a
// discrete-event simulation that regenerates every cost-sensitive figure
// deterministically. A whole mail node is stood up in one place,
// internal/cluster. The experiment registry (internal/core, surfaced by
// cmd/mailbench) maps each table and figure of the evaluation to a
// runner; bench/ is the end-to-end benchmark.
//
// Start with README.md, DESIGN.md (system inventory and substitutions),
// and EXPERIMENTS.md (paper-vs-measured for every table and figure).
package repro
