package coherence

// wbEntry is one posted write: a word address and the data word.
type wbEntry struct {
	addr uint32
	word uint32
	sent bool // handed to the node's outbound FIFO, awaiting ack

	pushedAt uint64 // cycle the entry was posted (latency attribution)
}

// writeBuffer is the paper's 8-word posted-write buffer (Table 2). It
// is strictly FIFO: entries are sent to memory in insertion order, and
// to preserve each CPU's global store order exactly one write-through
// may be in flight (sent but unacknowledged) at a time — the next entry
// leaves only when the previous acknowledgement (which the directory
// sends only after all invalidations completed) has returned. Writes
// are therefore non-blocking for the processor until the buffer fills,
// exactly the behaviour the paper describes.
type writeBuffer struct {
	entries []wbEntry
	depth   int
}

func newWriteBuffer(depth int) *writeBuffer {
	return &writeBuffer{depth: depth}
}

// Full reports whether no more writes can be accepted.
func (w *writeBuffer) Full() bool { return len(w.entries) >= w.depth }

// Empty reports whether the buffer holds no writes, sent or not.
func (w *writeBuffer) Empty() bool { return len(w.entries) == 0 }

// Len reports the number of occupied entries.
func (w *writeBuffer) Len() int { return len(w.entries) }

// Push posts a write at cycle now. A write to the same word as the
// newest unsent entry coalesces into it; otherwise a new entry is
// taken. Push reports whether the write was accepted (false when full).
func (w *writeBuffer) Push(now uint64, addr uint32, word uint32) bool {
	// Coalesce only with the newest entry when unsent and same word:
	// merging with older entries would reorder stores.
	if n := len(w.entries); n > 0 {
		if last := &w.entries[n-1]; !last.sent && last.addr == addr {
			last.word = word
			return true
		}
	}
	if w.Full() {
		return false
	}
	w.entries = append(w.entries, wbEntry{addr: addr, word: word, pushedAt: now})
	return true
}

// NextToSend returns the oldest unsent entry if it is eligible: it is
// at the head of the unsent region and no entry is currently in flight.
func (w *writeBuffer) NextToSend() (*wbEntry, bool) {
	for i := range w.entries {
		if w.entries[i].sent {
			return nil, false // one write in flight at a time
		}
		return &w.entries[i], true
	}
	return nil, false
}

// Ack retires the in-flight entry, which must match addr, and returns
// the cycle it was posted.
func (w *writeBuffer) Ack(addr uint32) (pushedAt uint64, ok bool) {
	if len(w.entries) == 0 || !w.entries[0].sent || w.entries[0].addr != addr {
		return 0, false
	}
	pushedAt = w.entries[0].pushedAt
	copy(w.entries, w.entries[1:])
	w.entries = w.entries[:len(w.entries)-1]
	return pushedAt, true
}

// HasUnsentInBlock reports whether any unsent entry targets the block
// at blockAddr. A read miss to such a block
// must wait for those writes to depart first, or the read would reach
// the bank ahead of them.
func (w *writeBuffer) HasUnsentInBlock(blockAddr uint32) bool {
	for i := range w.entries {
		e := &w.entries[i]
		if !e.sent && BlockAddr(e.addr) == blockAddr {
			return true
		}
	}
	return false
}

// Forward returns the word of the newest entry for the word at addr;
// ok is false when no entry holds it.
func (w *writeBuffer) Forward(addr uint32) (word uint32, ok bool) {
	for i := len(w.entries) - 1; i >= 0; i-- {
		if e := &w.entries[i]; e.addr == addr {
			return e.word, true
		}
	}
	return 0, false
}
