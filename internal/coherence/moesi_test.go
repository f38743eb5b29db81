package coherence

import "testing"

func TestMOESIDirtyReadKeepsOwnership(t *testing.T) {
	r := newRig(t, MOESI, 3, 1)
	addr := uint32(rigBase + 0x800)
	r.store(0, addr, 42) // cpu0 M
	r.settle()
	if v := r.load(1, addr); v != 42 {
		t.Fatalf("remote read = %d", v)
	}
	r.settle()
	// The defining MOESI behaviour: the dirty owner stays Owned,
	// memory is NOT refreshed, the reader holds Shared.
	if st := r.state(0, addr); st != Owned {
		t.Fatalf("previous owner = %v, want O", st)
	}
	if st := r.state(1, addr); st != Shared {
		t.Fatalf("reader = %v, want S", st)
	}
	if got := r.space.ReadWord(addr); got == 42 {
		t.Fatal("memory was refreshed; the Owned state should have prevented it")
	}
	// A second reader is supplied by the owner, still without touching
	// memory.
	if v := r.load(2, addr); v != 42 {
		t.Fatalf("second reader = %d", v)
	}
	r.settle()
	if st := r.state(0, addr); st != Owned {
		t.Fatalf("owner after second read = %v", st)
	}
	r.check()
}

func TestMOESIOwnerUpgrade(t *testing.T) {
	r := newRig(t, MOESI, 2, 1)
	addr := uint32(rigBase + 0x840)
	r.store(0, addr, 1) // M
	r.settle()
	r.load(1, addr) // owner -> O, reader S
	r.settle()
	// The owner writes again: an upgrade (invalidate the sharer), no
	// data transfer needed.
	r.store(0, addr, 2)
	r.settle()
	if st := r.state(0, addr); st != Modified {
		t.Fatalf("owner after upgrade = %v, want M", st)
	}
	if st := r.state(1, addr); st != Invalid {
		t.Fatalf("sharer after owner upgrade = %v, want I", st)
	}
	if up := r.DCaches[0].Stats().Upgrades; up != 1 {
		t.Fatalf("Upgrades = %d", up)
	}
	r.check()
}

func TestMOESISharerUpgradeSteal(t *testing.T) {
	// A Shared holder writes while another cache is Owned: the O copy
	// must be fetched/invalidated and the writer becomes M.
	r := newRig(t, MOESI, 2, 1)
	addr := uint32(rigBase + 0x880)
	r.store(0, addr, 5) // cpu0 M
	r.settle()
	r.load(1, addr) // cpu0 O, cpu1 S
	r.settle()
	r.store(1, addr, 6)
	r.settle()
	if st := r.state(1, addr); st != Modified {
		t.Fatalf("writer = %v, want M", st)
	}
	if st := r.state(0, addr); st != Invalid {
		t.Fatalf("old owner = %v, want I", st)
	}
	if v := r.load(1, addr); v != 6 {
		t.Fatalf("writer reads %d", v)
	}
	r.check()
}

func TestMOESIOwnedEvictionWritesBack(t *testing.T) {
	r := newRig(t, MOESI, 2, 1)
	p := DefaultParams(2)
	addr := uint32(rigBase + 0x8c0)
	conflict := addr + uint32(p.DCacheBytes)
	r.store(0, addr, 9)
	r.settle()
	r.load(1, addr) // cpu0 -> O
	r.settle()
	r.load(0, conflict) // evicts the Owned block: must write back
	r.settle()
	if got := r.space.ReadWord(addr); got != 9 {
		t.Fatalf("memory after O eviction = %d", got)
	}
	// The sharer's copy survives and is now consistent with memory.
	if st := r.state(1, addr); st != Shared {
		t.Fatalf("sharer after O eviction = %v", st)
	}
	r.check()
}

func TestMOESITrafficBeatsMESIOnDirtySharing(t *testing.T) {
	// Repeated dirty read-sharing (one producer, rotating consumers
	// with conflict evictions in between) moves less data under MOESI:
	// the owner never writes memory back on a fetch.
	traffic := func(proto Protocol, c2c bool) uint64 {
		r := newRigWith(t, proto, 3, 1, func(p *Params) { p.CacheToCache = c2c })
		addr := uint32(rigBase + 0x900)
		for i := 0; i < 20; i++ {
			r.store(0, addr, uint32(i))
			r.settle()
			r.load(1, addr)
			r.load(2, addr)
			r.settle()
		}
		return r.net.Stats().TotalBytes
	}
	moesi := traffic(MOESI, true)
	mesi := traffic(WBMESI, true)
	if moesi >= mesi {
		t.Fatalf("MOESI traffic %d not below MESI+C2C %d on dirty sharing", moesi, mesi)
	}
}

func TestMOESICounterEndToEndRig(t *testing.T) {
	r := newRig(t, MOESI, 4, 1)
	lock := uint32(rigBase + 0x940)
	counter := uint32(rigBase + 0x980)
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
