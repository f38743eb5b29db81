package coherence

import (
	"bytes"
	"runtime"
	"testing"
	"unsafe"
)

// TestIdleEntryForgetsItsSwap finishes a WTU swap that opened a
// transaction (the other cache's copy is updated) on two banks whose
// word held different values: once the blocks are idle, the old word
// went back to the swapper and is no state of the bank, so the two
// banks fingerprint alike.
func TestIdleEntryForgetsItsSwap(t *testing.T) {
	addr := uint32(rigBase + 0x580)
	var enc [2]Enc
	for i, old := range [2]uint32{5, 6} {
		r := newRig(t, WTU, 2, 1)
		r.space.WriteWord(addr, old)
		r.load(1, addr)
		r.settle()
		if got := r.swap(0, addr, 1); got != old {
			t.Fatalf("swap returned %d, want %d", got, old)
		}
		r.settle()
		if st := r.Banks[0].Stats(); st.Swaps != 1 || st.UpdatesSent != 1 {
			t.Fatalf("the swap opened no transaction: %+v", *st)
		}
		r.Banks[0].Fingerprint(&enc[i], r.now)
	}
	if !bytes.Equal(enc[0], enc[1]) {
		t.Fatalf("a finished swap's old word is still in the idle entry:\n%x\n%x", enc[0], enc[1])
	}
}

// TestDirectoryBlockCost pins what a bank pays per block it has seen:
// a record of at most 24 bytes carved from the bank's chunks plus its
// map slot, and nothing to look the block up again.
func TestDirectoryBlockCost(t *testing.T) {
	if s := unsafe.Sizeof(dirEntry{}); s > 24 {
		t.Errorf("a directory record is %d bytes, want at most 24", s)
	}
	mc := newRig(t, WTI, 1, 1).Banks[0]
	const n = 4096
	touch := func() {
		for i := range uint32(n) {
			mc.entry(rigBase + i*BlockBytes)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	touch()
	runtime.ReadMemStats(&after)
	perBytes := float64(after.TotalAlloc-before.TotalAlloc) / n
	perMallocs := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("first touch: %.1f B and %.3f mallocs per block", perBytes, perMallocs)
	if perBytes > 100 || perMallocs > 0.2 {
		t.Errorf("first touch costs %.1f B and %.3f mallocs per block, want at most 100 B and 0.2", perBytes, perMallocs)
	}
	if a := testing.AllocsPerRun(3, touch); a != 0 {
		t.Errorf("looking %d known blocks up again allocates %v times", n, a)
	}
}
