package mfs

// Stats summarizes a store's on-disk footprint for reports and tests.
type Stats struct {
	SharedRecords int // live single copies in the shared store
	SharedRefs    int // mailbox pointers those copies serve
	OpenMailboxes int
}

// Stats returns current store statistics.
func (s *Store) Stats() Stats {
	records, refs := s.shared.counts()
	s.openMu.RLock()
	open := len(s.open)
	s.openMu.RUnlock()
	return Stats{SharedRecords: records, SharedRefs: refs, OpenMailboxes: open}
}
