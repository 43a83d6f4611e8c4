package policy

import "time"

// This file defines the snapshot/delta wire contract of the pre-trust
// state the scale-out director tier replicates: Reputation and Greylist
// each expose Delta (entries stamped at or after since; a zero since is a
// full snapshot) and Merge (fold a peer's entries in, report how many
// changed local state). Merge is commutative and idempotent, so
// internal/director's gossip rounds can overlap, repeat, and arrive in
// any order. The same store may be private to one Engine, shared among
// several front-end goroutines, or replicated between nodes.
//
// Times are absolute (time.Time). The Engine itself stays clock-agnostic
// — its methods take a Duration offset — and converts offsets to
// absolute instants against the Unix epoch, so simulator virtual
// time and wall time both map onto the stores. Absolute times are what
// make state mergeable across nodes: a decayed-score stamp or greylist
// window recorded on one front end means the same thing on every other.

// RepEntry is one reputation entry in the snapshot/delta wire contract:
// a decayed score as of its last update. Key is the dotted-quad IP for
// exact-address entries or CIDR notation ("185.0.2.0/25") for prefix
// aggregates.
type RepEntry struct {
	Key   string    `json:"k"`
	Value float64   `json:"v"`
	Last  time.Time `json:"t"`
}

// GreyEntry is one greylist tuple in the snapshot/delta wire contract.
// Key is the store's tuple key (client /24, sender, recipient).
type GreyEntry struct {
	Key       string    `json:"k"`
	FirstSeen time.Time `json:"f"`
	Passed    bool      `json:"p,omitempty"`
	Expiry    time.Time `json:"e"`
	Updated   time.Time `json:"u"`
}
