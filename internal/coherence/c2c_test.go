package coherence

import "testing"

// newC2CRig builds a MESI rig with cache-to-cache transfers enabled.
func newC2CRig(t *testing.T, ncpu, nbank int) *rig {
	return newRigWith(t, WBMESI, ncpu, nbank, func(p *Params) { p.CacheToCache = true })
}

func TestC2CSharedTransfer(t *testing.T) {
	r := newC2CRig(t, 2, 1)
	addr := uint32(rigBase + 0x600)
	r.store(0, addr, 99) // cpu0 holds M
	r.settle()
	if v := r.load(1, addr); v != 99 {
		t.Fatalf("forwarded read = %d", v)
	}
	r.settle()
	// The transfer came from the owner, not the bank.
	if got := r.DCaches[0].Stats().C2CTransfers; got != 1 {
		t.Fatalf("C2CTransfers = %d", got)
	}
	// Shared downgrade must have refreshed memory.
	if got := r.space.ReadWord(addr); got != 99 {
		t.Fatalf("memory after shared transfer = %d", got)
	}
	if st := r.state(0, addr); st != Shared {
		t.Fatalf("owner after transfer = %v", st)
	}
	r.check()
}

func TestC2CExclusiveDirtyHandoff(t *testing.T) {
	r := newC2CRig(t, 2, 1)
	addr := uint32(rigBase + 0x640)
	r.store(0, addr, 5) // cpu0 M
	r.settle()
	r.store(1, addr, 6) // write miss: dirty M-to-M handoff
	r.settle()
	if st := r.state(1, addr); st != Modified {
		t.Fatalf("new owner state = %v", st)
	}
	if st := r.state(0, addr); st != Invalid {
		t.Fatalf("old owner state = %v", st)
	}
	// Dirty handoff skips the memory refresh: memory may hold the old
	// value while the new owner's copy is authoritative.
	if v := r.load(1, addr); v != 6 {
		t.Fatalf("new owner reads %d", v)
	}
	r.check()
}

func TestC2CLowersRemoteDirtyReadLatency(t *testing.T) {
	measure := func(c2c bool) uint64 {
		var r *rig
		if c2c {
			r = newC2CRig(t, 2, 1)
		} else {
			r = newRig(t, WBMESI, 2, 1)
		}
		addr := uint32(rigBase + 0x680)
		r.store(0, addr, 7)
		r.settle()
		start := r.now
		r.load(1, addr)
		return r.now - start
	}
	plain := measure(false)
	fwd := measure(true)
	if fwd >= plain {
		t.Fatalf("cache-to-cache read latency %d not below plain %d", fwd, plain)
	}
}

func TestC2CStress(t *testing.T) {
	// The randomized stress from protocol_test, on the C2C variant:
	// invariants and value legality must hold despite the forwarding
	// races (late invalidations vs forwarded data).
	r := newC2CRig(t, 4, 2)
	stressRig(t, r, 4, 400, 777)
}

func TestC2CCounterAtomicity(t *testing.T) {
	r := newC2CRig(t, 4, 1)
	lock := uint32(rigBase + 0x700)
	counter := uint32(rigBase + 0x740)
	type actor struct {
		phase int
		todo  int
		val   uint32
	}
	actors := make([]actor, 4)
	for i := range actors {
		actors[i].todo = 15
	}
	for step := 0; step < 2_000_000; step++ {
		alldone := true
		for i := range actors {
			a := &actors[i]
			if a.todo == 0 {
				continue
			}
			alldone = false
			switch a.phase {
			case 0:
				if old, ok := r.DCaches[i].Swap(r.now, lock, 1); ok && old == 0 {
					a.phase = 1
				}
			case 1:
				if v, ok := r.DCaches[i].Load(r.now, counter); ok {
					a.val = v
					a.phase = 2
				}
			case 2:
				if r.DCaches[i].Store(r.now, counter, a.val+1) {
					a.phase = 3
				}
			case 3:
				if r.DCaches[i].Store(r.now, lock, 0) {
					a.phase = 0
					a.todo--
				}
			}
		}
		if alldone {
			break
		}
		r.step()
	}
	r.settle()
	r.FlushCaches()
	if got := r.space.ReadWord(counter); got != 60 {
		t.Fatalf("counter = %d, want 60", got)
	}
	r.check()
}
