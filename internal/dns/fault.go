package dns

import (
	"net"
	"sync"
)

// FaultConfig sets per-packet fault probabilities for the injection
// wrapper. Probabilities are independent and evaluated in the order
// loss, duplication, reordering, truncation.
type FaultConfig struct {
	// Loss drops the packet entirely.
	Loss float64
	// Duplicate sends the packet twice.
	Duplicate float64
	// Reorder holds the packet back and releases it after the next one.
	Reorder float64
	// Truncate delivers the message with the TC bit set and the answer
	// sections stripped, as a real resolver does when an answer exceeds
	// the transport size.
	Truncate float64
	// Seed drives the deterministic fault RNG (default 1).
	Seed uint64
}

// faultRNG is a tiny splitmix64 so the dns package stays dependency-free
// and fault sequences are reproducible across runs.
type faultRNG struct{ state uint64 }

func newFaultRNG(seed uint64) *faultRNG {
	if seed == 0 {
		seed = 1
	}
	return &faultRNG{state: seed}
}

func (r *faultRNG) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// chance returns true with probability p.
func (r *faultRNG) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	return float64(r.next()>>11)/float64(1<<53) < p
}

// FaultStats counts injected faults.
type FaultStats struct {
	Dropped    int64
	Duplicated int64
	Reordered  int64
	Truncated  int64
}

// FaultConn wraps a net.PacketConn and injects faults into outgoing
// packets. Wrapping a DNS server's listener simulates a lossy path back
// to the client — the direction that turns into client-visible timeouts
// — without touching the client code under test.
type FaultConn struct {
	net.PacketConn
	cfg FaultConfig

	mu   sync.Mutex
	rng  *faultRNG
	held []heldPacket // packets delayed by reordering
	st   FaultStats
}

type heldPacket struct {
	data []byte
	to   net.Addr
}

// NewFaultConn wraps inner with the given fault configuration.
func NewFaultConn(inner net.PacketConn, cfg FaultConfig) *FaultConn {
	return &FaultConn{PacketConn: inner, cfg: cfg, rng: newFaultRNG(cfg.Seed)}
}

// Stats returns a snapshot of the injected-fault counters.
func (f *FaultConn) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.st
}

// WriteTo applies the configured faults and forwards surviving packets.
func (f *FaultConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	f.mu.Lock()
	var release []heldPacket
	var sendNow [][]byte
	switch {
	case f.rng.chance(f.cfg.Loss):
		f.st.Dropped++
		// Swallowed; report success like a network would.
	case f.rng.chance(f.cfg.Reorder):
		f.st.Reordered++
		f.held = append(f.held, heldPacket{data: truncateIf(f, p), to: addr})
	default:
		out := truncateIf(f, p)
		sendNow = append(sendNow, out)
		if f.rng.chance(f.cfg.Duplicate) {
			f.st.Duplicated++
			sendNow = append(sendNow, out)
		}
		release = f.held
		f.held = nil
	}
	f.mu.Unlock()

	for _, data := range sendNow {
		if _, err := f.PacketConn.WriteTo(data, addr); err != nil {
			return 0, err
		}
	}
	for _, h := range release {
		f.PacketConn.WriteTo(h.data, h.to) //nolint:errcheck // best-effort late delivery
	}
	return len(p), nil
}

// truncateIf applies truncation with the configured probability: the
// message is re-encoded with the TC bit and no answers. Undecodable
// payloads pass through unchanged. Caller holds f.mu.
func truncateIf(f *FaultConn, p []byte) []byte {
	if !f.rng.chance(f.cfg.Truncate) {
		return p
	}
	m, err := Decode(p)
	if err != nil {
		return p
	}
	m.Truncated = true
	m.Answers, m.Authority, m.Additional = nil, nil, nil
	out, err := m.Encode()
	if err != nil {
		return p
	}
	f.st.Truncated++
	return out
}
