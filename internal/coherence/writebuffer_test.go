package coherence

import (
	"testing"
	"testing/quick"
)

func TestWriteBufferFIFOAndOneInFlight(t *testing.T) {
	w := newWriteBuffer(4)
	w.Push(3, 0x100, 1)
	w.Push(5, 0x104, 2)
	e, ok := w.NextToSend()
	if !ok || e.addr != 0x100 {
		t.Fatalf("NextToSend = %+v, %v", e, ok)
	}
	e.sent = true
	if _, ok := w.NextToSend(); ok {
		t.Fatal("second write eligible while the first is in flight")
	}
	if at, ok := w.Ack(0x100); !ok || at != 3 {
		t.Fatalf("Ack = %d, %v; want the post cycle 3, true", at, ok)
	}
	e, ok = w.NextToSend()
	if !ok || e.addr != 0x104 {
		t.Fatalf("after ack NextToSend = %+v, %v", e, ok)
	}
}

func TestWriteBufferAckValidation(t *testing.T) {
	w := newWriteBuffer(4)
	w.Push(0, 0x100, 1)
	if _, ok := w.Ack(0x100); ok {
		t.Fatal("ack accepted for an unsent entry")
	}
	e, _ := w.NextToSend()
	e.sent = true
	if _, ok := w.Ack(0x200); ok {
		t.Fatal("ack accepted for the wrong address")
	}
}

func TestWriteBufferCoalescing(t *testing.T) {
	w := newWriteBuffer(2)
	w.Push(0, 0x100, 0xaa)
	w.Push(0, 0x100, 0xbb) // same word: coalesce
	if w.Len() != 1 {
		t.Fatalf("Len = %d, want coalesced 1", w.Len())
	}
	if v, ok := w.Forward(0x100); !ok || v != 0xbb {
		t.Fatalf("Forward = %#x, %v", v, ok)
	}
	// A different word must not coalesce.
	w.Push(0, 0x104, 1)
	if w.Len() != 2 {
		t.Fatalf("Len = %d", w.Len())
	}
	// Coalescing with a non-newest entry would reorder: not allowed.
	w.Push(0, 0x100, 0xcc)
	if w.Len() != 2 && !w.Full() {
		t.Fatalf("old-entry coalesce created odd state: len=%d", w.Len())
	}
}

func TestWriteBufferCapacity(t *testing.T) {
	w := newWriteBuffer(2)
	if !w.Push(0, 0x100, 1) || !w.Push(0, 0x104, 2) {
		t.Fatal("pushes within capacity failed")
	}
	if w.Push(0, 0x108, 3) {
		t.Fatal("push above capacity accepted")
	}
}

func TestWriteBufferForwarding(t *testing.T) {
	w := newWriteBuffer(8)
	w.Push(0, 0x100, 0x11223344)
	if v, ok := w.Forward(0x100); !ok || v != 0x11223344 {
		t.Fatalf("forward = %#x %v", v, ok)
	}
	// Unrelated address: nothing.
	if _, ok := w.Forward(0x300); ok {
		t.Fatal("unrelated address must be a clean miss")
	}
}

func TestWriteBufferNewestWins(t *testing.T) {
	w := newWriteBuffer(8)
	w.Push(0, 0x100, 1)
	e, _ := w.NextToSend()
	e.sent = true // freeze the first entry so the second doesn't coalesce
	w.Push(0, 0x100, 2)
	if v, ok := w.Forward(0x100); !ok || v != 2 {
		t.Fatalf("Forward returned %d, want the newest value 2", v)
	}
}

func TestWriteBufferHasUnsentInBlock(t *testing.T) {
	w := newWriteBuffer(8)
	w.Push(0, 0x104, 1)
	if !w.HasUnsentInBlock(0x100) {
		t.Fatal("unsent entry in block not found")
	}
	if w.HasUnsentInBlock(0x120) {
		t.Fatal("wrong block matched")
	}
	e, _ := w.NextToSend()
	e.sent = true
	if w.HasUnsentInBlock(0x100) {
		t.Fatal("sent entry still reported as unsent")
	}
}

func TestWriteBufferProperty(t *testing.T) {
	// Pushing a sequence and draining with acks always yields the
	// pushed word-addresses in order (modulo coalescing into the tail).
	f := func(addrs []uint8) bool {
		w := newWriteBuffer(64)
		var want []uint32
		for i, a := range addrs {
			addr := uint32(a&0x3f) * 4
			if n := len(want); n > 0 && want[n-1] == addr {
				// coalesces into the newest entry
				if !w.Push(0, addr, uint32(i)) {
					return false
				}
				continue
			}
			if !w.Push(0, addr, uint32(i)) {
				return false
			}
			want = append(want, addr)
		}
		var got []uint32
		for {
			e, ok := w.NextToSend()
			if !ok {
				break
			}
			e.sent = true
			got = append(got, e.addr)
			if _, ok := w.Ack(e.addr); !ok {
				return false
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return w.Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
