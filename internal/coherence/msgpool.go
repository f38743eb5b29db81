package coherence

// msgSlab holds every protocol message between its send and its
// delivery, one slab per Hierarchy shared by every port. SendCtrl
// stores the message in a slot; the outbound port, and then the
// packet on the wire (noc.Packet.Ref), carry only the slot number; the
// receiving node copies the message out into its rx buffer and frees
// the slot before its sink sees it (Node.Tick). A message is therefore
// never written in flight, and a packet holds no pointer.
//
// One slab serves every port, so a slot names the same message at both
// ends of the wire, and the slots the banks free are the ones a
// cache-to-cache protocol's caches, which send more than they receive,
// take next. The slot numbers a run hands out never steer it: nothing
// orders, fingerprints or reports by them.
type msgSlab struct {
	msgs []Msg
	free []uint32
}

// put stores m in a free slot and returns it. The append runs only
// while the slab grows toward the machine's peak in-flight count, after
// which every send reuses a freed slot.
func (s *msgSlab) put(m Msg) uint32 {
	if n := len(s.free); n > 0 {
		i := s.free[n-1]
		s.free = s.free[:n-1]
		s.msgs[i] = m
		return i
	}
	s.msgs = append(s.msgs, m)
	return uint32(len(s.msgs) - 1)
}

// take frees slot i and returns its message.
func (s *msgSlab) take(i uint32) Msg {
	s.free = append(s.free, i)
	return s.msgs[i]
}
