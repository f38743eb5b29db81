package coherence

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
)

// holder is one cache's copy of a block.
type holder struct {
	cpu  int
	info LineInfo
}

// copies groups every resident data-cache line by block, with the block
// addresses sorted so a multi-violation state always reports the same
// (lowest-addressed) violation — checker output is part of the
// determinism contract.
func (h *Hierarchy) copies() (blocks map[uint32][]holder, blkAddrs []uint32) {
	blocks = make(map[uint32][]holder)
	for cpu, dc := range h.DCaches {
		for _, li := range dc.Lines() {
			if blocks[li.Addr] == nil {
				blkAddrs = append(blkAddrs, li.Addr)
			}
			blocks[li.Addr] = append(blocks[li.Addr], holder{cpu: cpu, info: li})
		}
	}
	sort.Slice(blkAddrs, func(i, j int) bool { return blkAddrs[i] < blkAddrs[j] })
	return blocks, blkAddrs
}

// CheckCoherence verifies the protocol invariants over a quiescent
// hierarchy: it is CheckRuntime on a drained one, and reports "not
// quiescent" with Pending's parts otherwise. Quiescence is what makes
// it the strict check: with no directory entry busy none of
// CheckRuntime's checks is skipped, and with no write posted every
// clean copy must equal memory byte for byte.
func (h *Hierarchy) CheckCoherence() error {
	var parts []string
	if h.Pending(func(part string) { parts = append(parts, part) }) {
		return fmt.Errorf("coherence: not quiescent: %s", strings.Join(parts, ", "))
	}
	return h.CheckRuntime()
}

// CheckRuntime verifies the invariants that must hold in EVERY
// reachable state, transient protocol windows included. It is cheap
// enough to run each cycle on small systems and every N cycles on large
// ones (mcsim -check, the model checker, and the test rigs all use it).
//
// What is checked, and why it is transient-safe:
//
//  1. Single writer / multiple reader: at most one cache holds a block
//     in a supplier state (O/E/M), and an E/M holder excludes every
//     other copy. The directories grant exclusivity only after every
//     invalidation is acknowledged, so SWMR has no transient exception.
//  2. Value agreement, skipped while the block's directory entry has an
//     open transaction (DirBusy) — that is exactly the window in which
//     copies are legitimately being invalidated, updated, or fetched:
//     - MESI/MOESI: an S or E copy's bytes equal memory, except while
//     the recorded owner's writeback of the block is in flight (its
//     Posted words); with an Owned supplier, S copies must equal the
//     Owned copy instead.
//     - WTI/WTU: every valid copy's bytes equal memory, except bytes
//     still covered by the holder's own posted write buffer (a WTI
//     store updates the line immediately; memory catches up when the
//     write-through drains).
//  3. Directory agreement, also outside busy windows: every copy's
//     holder is recorded as a sharer or the owner, and a supplier-state
//     holder is the recorded owner. (The reverse — the directory
//     recording caches that silently dropped clean copies — is allowed.)
func (h *Hierarchy) CheckRuntime() error {
	blocks, blkAddrs := h.copies()
	for _, blk := range blkAddrs {
		hs := blocks[blk]
		// SWMR: holds in every reachable state.
		supplier := -1
		var supplierState LineState
		var supplierData []byte
		for _, c := range hs {
			if c.info.State >= Owned {
				if supplier >= 0 {
					return fmt.Errorf("coherence: SWMR: block %#x: two supplier holders (cpu %d in %v and cpu %d in %v)",
						blk, supplier, supplierState, c.cpu, c.info.State)
				}
				supplier = c.cpu
				supplierState = c.info.State
				supplierData = c.info.Data
			}
		}
		if supplier >= 0 && supplierState != Owned && len(hs) > 1 {
			return fmt.Errorf("coherence: SWMR: block %#x: %v holder cpu %d coexists with %d other copies",
				blk, supplierState, supplier, len(hs)-1)
		}
		mc := h.bankFor(blk)
		if mc.DirBusy(blk) {
			continue // open transaction: value/directory state in motion
		}
		memData := make([]byte, len(hs[0].info.Data))
		h.space.ReadBlock(blk, memData)
		sharers, owner := mc.DirSnapshot(blk)
		for _, c := range hs {
			known := sharers&(1<<c.cpu) != 0 || owner == c.cpu
			if !known {
				return fmt.Errorf("coherence: directory: block %#x: cpu %d holds a %v copy unknown to the directory",
					blk, c.cpu, c.info.State)
			}
			if c.info.State >= Owned && owner != c.cpu {
				return fmt.Errorf("coherence: directory: block %#x: cpu %d holds %v but directory owner is %d",
					blk, c.cpu, c.info.State, owner)
			}
			switch {
			case c.info.State == Modified || c.info.State == Owned:
				// Dirty supplier: memory is legitimately stale.
			case supplierState == Owned && c.info.State == Shared:
				if !bytes.Equal(c.info.Data, supplierData) {
					return fmt.Errorf("coherence: value: block %#x: cpu %d shared copy differs from the Owned copy", blk, c.cpu)
				}
			default:
				if err := h.checkCopyAgainstMemory(blk, c, owner, memData); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// checkCopyAgainstMemory compares one clean copy with memory, byte by
// byte, exempting words covered by writes the holder or the block's
// recorded owner has posted (the write-through transient, and an Owned
// block's writeback in flight).
func (h *Hierarchy) checkCopyAgainstMemory(blk uint32, c holder, owner int, memData []byte) error {
	posted := func(w uint32) bool {
		return h.DCaches[c.cpu].Posted(w) || owner >= 0 && h.DCaches[owner].Posted(w)
	}
	for i := range memData {
		if c.info.Data[i] != memData[i] && !posted(blk+uint32(i&^3)) {
			return fmt.Errorf("coherence: value: block %#x: cpu %d %v copy byte %d is %#x, memory has %#x (no covering write)",
				blk, c.cpu, c.info.State, i, c.info.Data[i], memData[i])
		}
	}
	return nil
}
