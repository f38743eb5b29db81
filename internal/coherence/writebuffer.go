package coherence

import "repro/internal/obs"

// wbEntry is one posted write: a word address, the data word, and the
// byte-enable mask selecting which of its bytes are written.
type wbEntry struct {
	addr   uint32
	word   uint32
	byteEn uint8
	sent   bool // handed to the node's outbound FIFO, awaiting ack

	pushedAt uint64     // cycle the entry was posted (latency attribution)
	span     obs.SpanID // open trace span covering the entry's residency
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

	// obs observability: when attached, each entry's push-to-ack
	// residency is recorded as a trace span on the owner CPU's track
	// and as a write_drain latency sample.
	obs    *obs.Recorder
	obsPid int
}

func newWriteBuffer(depth int) *writeBuffer {
	return &writeBuffer{depth: depth}
}

// attachObs enables observability recording against the given trace
// process (the owner CPU's track group).
func (w *writeBuffer) attachObs(r *obs.Recorder, pid int) {
	w.obs = r
	w.obsPid = pid
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
func (w *writeBuffer) Push(now uint64, addr uint32, word uint32, byteEn uint8) bool {
	// Coalesce only with the newest entry when unsent and same word:
	// merging with older entries would reorder stores.
	if n := len(w.entries); n > 0 {
		last := &w.entries[n-1]
		if !last.sent && last.addr == addr {
			for i := uint32(0); i < 4; i++ {
				if byteEn&(1<<i) != 0 {
					mask := uint32(0xff) << (8 * i)
					last.word = last.word&^mask | word&mask
				}
			}
			last.byteEn |= byteEn
			return true
		}
	}
	if w.Full() {
		return false
	}
	e := wbEntry{addr: addr, word: word, byteEn: byteEn, pushedAt: now}
	if w.obs.Tracing() {
		e.span = w.obs.Begin(w.obsPid, "wb write", now, addr)
	}
	w.entries = append(w.entries, e)
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

// Ack retires the in-flight entry at cycle now, which must match addr,
// recording the entry's drain latency when observability is attached.
func (w *writeBuffer) Ack(now uint64, addr uint32) bool {
	if len(w.entries) == 0 || !w.entries[0].sent || w.entries[0].addr != addr {
		return false
	}
	head := &w.entries[0]
	if w.obs != nil {
		w.obs.Lat(obs.LatWriteDrain, now-head.pushedAt)
		w.obs.End(head.span, now)
	}
	copy(w.entries, w.entries[1:])
	w.entries = w.entries[:len(w.entries)-1]
	return true
}

// HasUnsentInBlock reports whether any unsent entry targets the block
// at blockAddr (block size blockBytes). A read miss to such a block
// must wait for those writes to depart first, or the read would reach
// the bank ahead of them.
func (w *writeBuffer) HasUnsentInBlock(blockAddr uint32, blockBytes int) bool {
	for i := range w.entries {
		e := &w.entries[i]
		if !e.sent && e.addr&^uint32(blockBytes-1) == blockAddr {
			return true
		}
	}
	return false
}

// Forward looks for the newest entry fully covering the byteEn bytes of
// the word at addr and returns its value. ok is false when no entry
// covers the requested bytes; conflict is true when some entry overlaps
// them only partially (the load must then wait for the drain).
func (w *writeBuffer) Forward(addr uint32, byteEn uint8) (word uint32, ok, conflict bool) {
	for i := len(w.entries) - 1; i >= 0; i-- {
		e := &w.entries[i]
		if e.addr != addr {
			continue
		}
		if e.byteEn&byteEn == byteEn {
			return e.word, true, false
		}
		if e.byteEn&byteEn != 0 {
			return 0, false, true
		}
	}
	return 0, false, false
}
