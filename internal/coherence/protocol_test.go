package coherence

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mem"
	"repro/internal/noc"
)

// testingT is the subset of testing.T the rig needs, so benchmarks
// (*testing.B) can reuse it.
type testingT interface {
	Helper()
	Fatal(args ...any)
	Fatalf(format string, args ...any)
}

// rig is a Hierarchy over a GMN without CPUs, so protocol transactions
// can be driven and observed directly.
type rig struct {
	*Hierarchy
	t     testingT
	net   *noc.GMN
	space *mem.Space
	now   uint64
	// checkEvery > 0 runs the transient-safe runtime invariant checker
	// every that many cycles inside step().
	checkEvery uint64
	// onStep, when set, runs at the start of every step, in the
	// drivers' slot before the hierarchy's cycle.
	onStep func()
}

const rigBase = 0x10000

func newRig(t testingT, proto Protocol, ncpu, nbank int) *rig {
	return newRigWith(t, proto, ncpu, nbank, nil)
}

// newRigWith builds the rig on DefaultParams as adjusted by tweak.
func newRigWith(t testingT, proto Protocol, ncpu, nbank int, tweak func(*Params)) *rig {
	return newRigOn(t, proto, ncpu, nbank, noc.DefaultGMNConfig(ncpu+nbank), tweak)
}

// newRigOn builds it over a GMN configured as gmn, whose Nodes it sets.
func newRigOn(t testingT, proto Protocol, ncpu, nbank int, gmn noc.GMNConfig, tweak func(*Params)) *rig {
	t.Helper()
	p := DefaultParams(ncpu)
	if tweak != nil {
		tweak(&p)
	}
	amap := mem.NewAddrMap(nbank)
	banks := make([]int, nbank)
	for i := range banks {
		banks[i] = i
	}
	region := mem.Region{Name: "all", Base: rigBase, Size: 1 << 20, Banks: banks}
	if nbank > 1 {
		region.Granule = 64
	}
	amap.AddRegion(region)
	gmn.Nodes = ncpu + nbank
	r := &rig{t: t, net: noc.NewGMN(gmn), space: mem.NewSpace()}
	r.Hierarchy = NewHierarchy(r.net, r.space, amap, p, proto)
	return r
}

func (r *rig) step() {
	if r.onStep != nil {
		r.onStep()
	}
	r.Step(r.now)
	r.now++
	if r.checkEvery > 0 && r.now%r.checkEvery == 0 {
		if err := r.CheckRuntime(); err != nil {
			r.t.Fatalf("cycle %d: %v", r.now, err)
		}
	}
}

func (r *rig) settle() {
	for i := 0; i < 100000; i++ {
		if !r.Pending(nil) {
			return
		}
		r.step()
	}
	r.t.Fatal("rig did not settle")
}

func (r *rig) load(cpu int, addr uint32) uint32 {
	for i := 0; i < 100000; i++ {
		if v, ok := r.DCaches[cpu].Load(r.now, addr); ok {
			return v
		}
		r.step()
	}
	r.t.Fatalf("load(%d, %#x) never completed", cpu, addr)
	return 0
}

func (r *rig) store(cpu int, addr uint32, v uint32) {
	for i := 0; i < 100000; i++ {
		if r.DCaches[cpu].Store(r.now, addr, v) {
			return
		}
		r.step()
	}
	r.t.Fatalf("store(%d, %#x) never completed", cpu, addr)
}

func (r *rig) swap(cpu int, addr uint32, v uint32) uint32 {
	for i := 0; i < 100000; i++ {
		if old, ok := r.DCaches[cpu].Swap(r.now, addr, v); ok {
			return old
		}
		r.step()
	}
	r.t.Fatalf("swap(%d, %#x) never completed", cpu, addr)
	return 0
}

func (r *rig) state(cpu int, addr uint32) LineState {
	for _, li := range r.DCaches[cpu].Lines() {
		if li.Addr == BlockAddr(addr) {
			return li.State
		}
	}
	return Invalid
}

func TestWTUUpdatesInsteadOfInvalidating(t *testing.T) {
	r := newRig(t, WTU, 3, 1)
	addr := uint32(rigBase + 0x500)
	r.load(1, addr)
	r.load(2, addr)
	r.settle()
	r.store(0, addr, 321)
	r.settle()
	// The defining WTU property: the other copies survive, updated.
	if st := r.state(1, addr); st != Shared {
		t.Fatalf("cpu1 lost its copy: %v", st)
	}
	if st := r.state(2, addr); st != Shared {
		t.Fatalf("cpu2 lost its copy: %v", st)
	}
	// And they were updated in place (hits, not refills).
	missesBefore := r.DCaches[1].Stats().LoadMisses
	if v := r.load(1, addr); v != 321 {
		t.Fatalf("cpu1 reads %d", v)
	}
	if r.DCaches[1].Stats().LoadMisses != missesBefore {
		t.Fatal("updated copy should have been a load hit")
	}
	if r.DCaches[1].Stats().UpdatesApplied == 0 {
		t.Fatal("no update applied")
	}
	r.check()
}

func TestWTUWriterOwnCopySerialization(t *testing.T) {
	// Two writers race on one word while both hold copies. Whatever the
	// bank's serialization order, every cached copy and memory must
	// converge to the same final value.
	r := newRig(t, WTU, 3, 1)
	addr := uint32(rigBase + 0x540)
	for cpu := 0; cpu < 3; cpu++ {
		r.load(cpu, addr)
	}
	r.settle()
	r.DCaches[0].Store(r.now, addr, 111)
	r.DCaches[1].Store(r.now, addr, 222)
	r.settle()
	r.check()
	final := r.space.ReadWord(addr)
	if final != 111 && final != 222 {
		t.Fatalf("memory = %d", final)
	}
	for cpu := 0; cpu < 3; cpu++ {
		if v := r.load(cpu, addr); v != final {
			t.Fatalf("cpu %d sees %d, memory %d", cpu, v, final)
		}
	}
}

func TestWTUSwapUpdatesSpinners(t *testing.T) {
	r := newRig(t, WTU, 2, 1)
	addr := uint32(rigBase + 0x580)
	r.store(1, addr, 0)
	r.settle()
	r.load(1, addr) // cpu1 caches the lock word
	r.settle()
	if old := r.swap(0, addr, 1); old != 0 {
		t.Fatalf("swap old = %d", old)
	}
	r.settle()
	// The spinner's copy survives and shows the new value.
	if st := r.state(1, addr); st != Shared {
		t.Fatalf("spinner copy state = %v", st)
	}
	if v := r.load(1, addr); v != 1 {
		t.Fatalf("spinner reads %d", v)
	}
	r.check()
}

func (r *rig) check() {
	r.t.Helper()
	if err := r.CheckCoherence(); err != nil {
		r.t.Fatal(err)
	}
}

// --- directed scenarios ---------------------------------------------------

func TestStoreThenRemoteLoad(t *testing.T) {
	for _, proto := range []Protocol{WTI, WTU, WBMESI} {
		t.Run(proto.String(), func(t *testing.T) {
			r := newRig(t, proto, 2, 2)
			r.store(0, rigBase, 1234)
			r.settle()
			if v := r.load(1, rigBase); v != 1234 {
				t.Fatalf("remote load = %d", v)
			}
			r.settle()
			r.check()
		})
	}
}

func TestStoreInvalidatesRemoteCopies(t *testing.T) {
	for _, proto := range []Protocol{WTI, WBMESI} {
		t.Run(proto.String(), func(t *testing.T) {
			r := newRig(t, proto, 3, 1)
			addr := uint32(rigBase + 0x40)
			r.load(1, addr)
			r.load(2, addr)
			r.settle()
			r.store(0, addr, 99)
			r.settle()
			if st := r.state(1, addr); st != Invalid {
				t.Fatalf("cpu1 state after remote store = %v", st)
			}
			if st := r.state(2, addr); st != Invalid {
				t.Fatalf("cpu2 state after remote store = %v", st)
			}
			if v := r.load(1, addr); v != 99 {
				t.Fatalf("cpu1 reloaded %d", v)
			}
			r.settle()
			r.check()
		})
	}
}

func TestWTIMemoryAlwaysCurrent(t *testing.T) {
	r := newRig(t, WTI, 2, 2)
	r.store(0, rigBase+8, 7)
	r.settle()
	// The WTI property the paper highlights: memory is up to date
	// without any cache flush.
	if got := r.space.ReadWord(rigBase + 8); got != 7 {
		t.Fatalf("memory = %d after settled write-through", got)
	}
	r.check()
}

func TestWTIWriterKeepsItsCopy(t *testing.T) {
	r := newRig(t, WTI, 2, 1)
	addr := uint32(rigBase + 0x80)
	r.load(0, addr) // allocate
	r.store(0, addr, 5)
	r.settle()
	if st := r.state(0, addr); st != Shared {
		t.Fatalf("writer lost its copy: %v", st)
	}
	if v := r.load(0, addr); v != 5 {
		t.Fatalf("writer reads %d", v)
	}
}

func TestWTISwapSemantics(t *testing.T) {
	r := newRig(t, WTI, 2, 1)
	addr := uint32(rigBase + 0xc0)
	r.store(0, addr, 10)
	r.settle()
	r.load(1, addr) // cpu1 caches the block
	if old := r.swap(0, addr, 20); old != 10 {
		t.Fatalf("swap returned %d, want 10", old)
	}
	r.settle()
	if st := r.state(1, addr); st != Invalid {
		t.Fatalf("swap left a stale remote copy: %v", st)
	}
	if st := r.state(0, addr); st != Invalid {
		t.Fatalf("swap left the requester's copy valid: %v", st)
	}
	if got := r.space.ReadWord(addr); got != 20 {
		t.Fatalf("memory after swap = %d", got)
	}
	r.check()
}

func TestMESIExclusiveGrantOnPrivateRead(t *testing.T) {
	r := newRig(t, WBMESI, 2, 1)
	addr := uint32(rigBase + 0x100)
	r.load(0, addr)
	r.settle()
	if st := r.state(0, addr); st != Exclusive {
		t.Fatalf("first reader got %v, want E (Illinois)", st)
	}
	// A second reader demotes the first to Shared.
	r.load(1, addr)
	r.settle()
	if st := r.state(0, addr); st != Shared {
		t.Fatalf("owner after second read = %v, want S", st)
	}
	if st := r.state(1, addr); st != Shared {
		t.Fatalf("second reader = %v, want S", st)
	}
	r.check()
}

func TestMESISilentEToMUpgrade(t *testing.T) {
	r := newRig(t, WBMESI, 2, 1)
	addr := uint32(rigBase + 0x140)
	r.load(0, addr)
	r.settle()
	pkts := r.net.Stats().Packets
	r.store(0, addr, 1) // E -> M must be silent
	r.settle()
	if got := r.net.Stats().Packets; got != pkts {
		t.Fatalf("E->M upgrade generated %d packets", got-pkts)
	}
	if st := r.state(0, addr); st != Modified {
		t.Fatalf("state = %v, want M", st)
	}
}

func TestMESIRemoteDirtyRead(t *testing.T) {
	r := newRig(t, WBMESI, 2, 1)
	addr := uint32(rigBase + 0x180)
	r.store(0, addr, 77)
	r.settle()
	if st := r.state(0, addr); st != Modified {
		t.Fatalf("writer state = %v", st)
	}
	if v := r.load(1, addr); v != 77 {
		t.Fatalf("remote read of dirty block = %d", v)
	}
	r.settle()
	// The fetch downgrades the owner and updates memory.
	if st := r.state(0, addr); st != Shared {
		t.Fatalf("owner after fetch = %v, want S", st)
	}
	if got := r.space.ReadWord(addr); got != 77 {
		t.Fatalf("memory after fetch = %d", got)
	}
	r.check()
}

func TestMESIUpgradeFromShared(t *testing.T) {
	r := newRig(t, WBMESI, 2, 1)
	addr := uint32(rigBase + 0x1c0)
	r.load(0, addr)
	r.load(1, addr)
	r.settle()
	r.store(1, addr, 5)
	r.settle()
	if st := r.state(1, addr); st != Modified {
		t.Fatalf("upgrader = %v, want M", st)
	}
	if st := r.state(0, addr); st != Invalid {
		t.Fatalf("other sharer = %v, want I", st)
	}
	if up := r.DCaches[1].Stats().Upgrades; up != 1 {
		t.Fatalf("Upgrades = %d", up)
	}
	r.check()
}

func TestMESIDirtyEvictionWritesBack(t *testing.T) {
	r := newRig(t, WBMESI, 1, 1)
	p := DefaultParams(1)
	addr := uint32(rigBase + 0x200)
	conflict := addr + uint32(p.DCacheBytes) // same set, different tag
	r.store(0, addr, 42)
	r.settle()
	r.load(0, conflict) // evicts the dirty block
	r.settle()
	if got := r.space.ReadWord(addr); got != 42 {
		t.Fatalf("memory after eviction = %d", got)
	}
	if wb := r.DCaches[0].Stats().Writebacks; wb != 1 {
		t.Fatalf("Writebacks = %d", wb)
	}
	r.check()
}

func TestMESISilentCleanEvictionThenRemoteAccess(t *testing.T) {
	// CPU 0 holds a block E, silently drops it on a conflict miss; the
	// directory still records it as owner. A remote access must get
	// fresh data through the no-data fetch path.
	r := newRig(t, WBMESI, 2, 1)
	p := DefaultParams(2)
	addr := uint32(rigBase + 0x240)
	conflict := addr + uint32(p.DCacheBytes)
	r.store(0, addr, 11) // M
	r.settle()
	r.load(0, conflict) // writeback + drop
	r.settle()
	r.load(0, addr) // E again (owner re-reads after silent... via writeback path)
	r.settle()
	r.load(0, conflict) // now addr was E and clean: silent drop, stale owner
	r.settle()
	if v := r.load(1, addr); v != 11 {
		t.Fatalf("remote load after silent eviction = %d", v)
	}
	r.settle()
	r.check()
}

func TestMESIOwnerReReadAfterSilentEviction(t *testing.T) {
	r := newRig(t, WBMESI, 1, 1)
	p := DefaultParams(1)
	addr := uint32(rigBase + 0x280)
	conflict := addr + uint32(p.DCacheBytes)
	r.load(0, addr) // E
	r.settle()
	r.load(0, conflict) // silent clean drop; directory owner stale
	r.settle()
	if v := r.load(0, addr); v != 0 {
		t.Fatalf("re-read = %d", v)
	}
	r.settle()
	if st := r.state(0, addr); st != Exclusive {
		t.Fatalf("re-read state = %v, want E again", st)
	}
	r.check()
}

func TestConcurrentUpgradeRace(t *testing.T) {
	// Both CPUs hold S and store in the same cycle: one upgrade wins,
	// the other is invalidated mid-flight and promoted to a full
	// exclusive read by the directory. Both must complete and the
	// final state must be coherent.
	r := newRig(t, WBMESI, 2, 1)
	addr := uint32(rigBase + 0x2c0)
	r.load(0, addr)
	r.load(1, addr)
	r.settle()
	done0, done1 := false, false
	for i := 0; i < 100000 && !(done0 && done1); i++ {
		if !done0 {
			done0 = r.DCaches[0].Store(r.now, addr, 100)
		}
		if !done1 {
			done1 = r.DCaches[1].Store(r.now, addr, 200)
		}
		r.step()
	}
	if !done0 || !done1 {
		t.Fatal("racing stores did not both complete")
	}
	r.settle()
	r.check()
	v := r.load(0, addr)
	if v != 100 && v != 200 {
		t.Fatalf("final value %d is neither store", v)
	}
}

func TestConcurrentWriteRaceWTI(t *testing.T) {
	r := newRig(t, WTI, 2, 1)
	addr := uint32(rigBase + 0x300)
	r.load(0, addr)
	r.load(1, addr)
	r.settle()
	r.DCaches[0].Store(r.now, addr, 100)
	r.DCaches[1].Store(r.now, addr, 200)
	r.settle()
	v := r.space.ReadWord(addr)
	if v != 100 && v != 200 {
		t.Fatalf("memory %d is neither store", v)
	}
	r.check()
	// Both caches must agree with memory after the dust settles.
	if got := r.load(0, addr); got != v {
		t.Fatalf("cpu0 sees %d, memory %d", got, v)
	}
	if got := r.load(1, addr); got != v {
		t.Fatalf("cpu1 sees %d, memory %d", got, v)
	}
}

func TestWTIWriteBufferFillsUnderLatency(t *testing.T) {
	r := newRig(t, WTI, 1, 1)
	p := DefaultParams(1)
	// Issue more posted writes than the buffer holds without stepping:
	// the buffer must eventually refuse.
	accepted := 0
	for i := 0; i < p.WriteBufferWords+4; i++ {
		if r.DCaches[0].Store(r.now, uint32(rigBase+i*64), uint32(i)) {
			accepted++
		}
	}
	if accepted != p.WriteBufferWords {
		t.Fatalf("accepted %d posted writes, want %d", accepted, p.WriteBufferWords)
	}
	if r.DCaches[0].Stats().WBufFullStalls == 0 {
		t.Fatal("full-buffer stalls not counted")
	}
	r.settle()
	r.check()
}

// TestPartialOverlapLoadWaitsForDrain posts a store to one word of a
// block the cache does not hold, then loads the block's next word. The
// write buffer covers the block but not the word, so the load can
// neither forward nor miss around it (the fill could overtake the
// write): it waits for the drain, then misses and returns memory's
// word, and the filled line holds the posted one, the runtime checker
// running on every cycle.
func TestPartialOverlapLoadWaitsForDrain(t *testing.T) {
	for _, proto := range []Protocol{WTI, WTU} {
		t.Run(proto.String(), func(t *testing.T) {
			r := newRig(t, proto, 1, 1)
			r.checkEvery = 1
			addr := uint32(rigBase + 0x600)
			r.space.WriteWord(addr, 0x11223344)
			r.space.WriteWord(addr+4, 0x55667788)
			if !r.DCaches[0].Store(r.now, addr, 0xaa) {
				t.Fatal("store not posted")
			}
			if _, ok := r.DCaches[0].Load(r.now, addr+4); ok {
				t.Fatal("load served around a posted write to its block")
			}
			if st := r.DCaches[0].Stats(); st.LoadMisses != 0 {
				t.Fatalf("load missed with the block's write still posted (%d misses)", st.LoadMisses)
			}
			if v := r.load(0, addr+4); v != 0x55667788 {
				t.Fatalf("load = %#x, want 0x55667788", v)
			}
			if v := r.load(0, addr); v != 0xaa {
				t.Fatalf("posted word reads %#x after the fill, want 0xaa", v)
			}
			if st := r.DCaches[0].Stats(); st.LoadMisses != 1 || st.WBForwards != 0 {
				t.Fatalf("load misses %d, forwards %d; want 1 and 0", st.LoadMisses, st.WBForwards)
			}
			r.settle()
			r.check()
		})
	}
}

func TestSwapAtomicityUnderContention(t *testing.T) {
	// N CPUs increment a counter with swap-based locks at rig level:
	// every lock acquisition must be exclusive.
	for _, proto := range []Protocol{WTI, WTU, WBMESI, MOESI} {
		t.Run(proto.String(), func(t *testing.T) {
			r := newRig(t, proto, 4, 2)
			lock := uint32(rigBase + 0x400)
			counter := uint32(rigBase + 0x440)
			type actor struct {
				phase int // 0: try lock, 1: read, 2: write, 3: unlock
				todo  int
				val   uint32
			}
			actors := make([]actor, 4)
			for i := range actors {
				actors[i].todo = 20
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
			if got := r.space.ReadWord(counter); got != 80 {
				t.Fatalf("counter = %d, want 80 (lost updates)", got)
			}
			r.check()
		})
	}
}

// --- randomized stress ------------------------------------------------------

func TestRandomStressWithInvariants(t *testing.T) {
	for _, proto := range []Protocol{WTI, WTU, WBMESI, MOESI} {
		for _, banks := range []int{1, 3} {
			t.Run(fmt.Sprintf("%v/%dbanks", proto, banks), func(t *testing.T) {
				stress(t, proto, 4, banks, 400, 12345)
			})
		}
	}
}

// stress drives random loads/stores/swaps from every cache over a
// small block set, checking after every quiescent phase that (a) the
// coherence invariants hold and (b) every loaded value was actually
// written to that word at some point (no stale resurrection, no
// invented values).
func stress(t *testing.T, proto Protocol, ncpu, nbank, opsPerCPU int, seed int64) {
	r := newRig(t, proto, ncpu, nbank)
	stressRig(t, r, ncpu, opsPerCPU, seed)
}

// stressRig runs the randomized workload on a prebuilt rig (so protocol
// variants like cache-to-cache reuse it). The runtime invariant checker
// runs mid-flight on a prime stride so it lands on ever-shifting phases
// of the protocol transactions.
func stressRig(t *testing.T, r *rig, ncpu, opsPerCPU int, seed int64) {
	if r.checkEvery == 0 {
		r.checkEvery = 113
	}
	rng := rand.New(rand.NewSource(seed))
	const words = 24 // 3 blocks: maximal conflict
	written := make(map[uint32]map[uint32]bool)
	addrOf := func(w int) uint32 { return rigBase + uint32(w)*4 }
	for w := 0; w < words; w++ {
		written[addrOf(w)] = map[uint32]bool{0: true}
	}
	type op struct {
		store bool
		swap  bool
		addr  uint32
		val   uint32
	}
	pending := make([]*op, ncpu)
	left := make([]int, ncpu)
	for i := range left {
		left[i] = opsPerCPU
	}
	seq := uint32(1)
	for step := 0; step < 5_000_000; step++ {
		alldone := true
		for c := 0; c < ncpu; c++ {
			if pending[c] == nil {
				if left[c] == 0 {
					continue
				}
				left[c]--
				o := &op{addr: addrOf(rng.Intn(words))}
				switch rng.Intn(10) {
				case 0, 1, 2:
					o.store = true
					o.val = seq
					seq++
				case 3:
					o.swap = true
					o.val = seq
					seq++
				}
				if o.store || o.swap {
					written[o.addr][o.val] = true
				}
				pending[c] = o
			}
			alldone = false
			o := pending[c]
			switch {
			case o.swap:
				if old, ok := r.DCaches[c].Swap(r.now, o.addr, o.val); ok {
					if !written[o.addr][old] {
						t.Fatalf("swap at %#x returned %d, never written there", o.addr, old)
					}
					pending[c] = nil
				}
			case o.store:
				if r.DCaches[c].Store(r.now, o.addr, o.val) {
					pending[c] = nil
				}
			default:
				if v, ok := r.DCaches[c].Load(r.now, o.addr); ok {
					if !written[o.addr][v] {
						t.Fatalf("load at %#x returned %d, never written there", o.addr, v)
					}
					pending[c] = nil
				}
			}
		}
		if alldone {
			break
		}
		r.step()
		// Periodically drain and check the global invariants.
		if step%997 == 0 {
			busy := false
			for c := 0; c < ncpu; c++ {
				if pending[c] != nil {
					busy = true
				}
			}
			if !busy {
				r.settle()
				r.check()
			}
		}
	}
	r.settle()
	r.check()
	for c := 0; c < ncpu; c++ {
		if pending[c] != nil || left[c] != 0 {
			t.Fatalf("cpu %d did not finish (%d left)", c, left[c])
		}
	}
}

// TestRefusedRequestsRetry fills CPU ports' outbound queues to reqBound
// with real traffic, so the admission bound refuses data misses and
// instruction refills and their controllers retry them from Tick: MOESI,
// whose cache-to-cache data and acks crowd a CPU's port most, runs the
// random stress over a GMN with depth-1 queues and a 6-cycle crossing,
// the runtime checker on every cycle, while each CPU with a data
// operation in flight also fetches a fresh instruction block every
// other cycle. A refused request shows as its controller's NextWake
// asking for the current cycle.
func TestRefusedRequestsRetry(t *testing.T) {
	var data, inst int
	for seed := int64(1); seed <= 8; seed++ {
		r := newRigOn(t, MOESI, 4, 1, noc.GMNConfig{Delay: 6, FIFODepth: 1, SrcDepth: 1}, nil)
		r.checkEvery = 1
		r.onStep = func() {
			for i, dc := range r.DCaches {
				if !dc.Drained() && r.now%2 == 0 {
					r.ICaches[i].Line(r.now, rigBase+0x40000+uint32(r.now/8%512)*32)
				}
				if dc.NextWake(r.now) == r.now {
					data++
				}
				if r.ICaches[i].NextWake(r.now) == r.now {
					inst++
				}
			}
		}
		stressRig(t, r, 4, 100, seed)
	}
	if data == 0 || inst == 0 {
		t.Fatalf("cycles a refused request waited: %d data misses, %d instruction refills; want both", data, inst)
	}
}

// TestRefusedRequestStaysAwake fills a CPU's port with sends latched
// far ahead, so no blocking request can issue: under every protocol a
// load miss, a write-allocating store (the write-back rows), a swap and
// an instruction refill must answer NextWake with the current cycle on
// every refused cycle, since only the cache's own Tick retries the
// issue, and send nothing. Once the port frees, exactly the one request
// leaves on the next tick, and the access completes when it is answered.
func TestRefusedRequestStaysAwake(t *testing.T) {
	cases := []struct {
		name string
		// wantWT and wantWB are the request the access sends under a
		// write-through and a write-back row; MsgInvalid: none.
		wantWT, wantWB MsgKind
		access         func(dc DataCache, ic *ICache, now uint64) bool
	}{
		{"load", ReqRead, ReqRead, func(dc DataCache, _ *ICache, now uint64) bool {
			_, ok := dc.Load(now, rigBase+0x100)
			return ok
		}},
		{"store", MsgInvalid, ReqReadExcl, func(dc DataCache, _ *ICache, now uint64) bool {
			return dc.Store(now, rigBase+0x200, 7)
		}},
		{"swap", ReqSwap, ReqReadExcl, func(dc DataCache, _ *ICache, now uint64) bool {
			_, ok := dc.Swap(now, rigBase+0x300, 7)
			return ok
		}},
		{"ifetch", ReqIFetch, ReqIFetch, func(_ DataCache, ic *ICache, now uint64) bool {
			_, ok := ic.Line(now, rigBase+0x400)
			return ok
		}},
	}
	for proto := range Protocols {
		_, writeBack := newRig(t, Protocol(proto), 1, 1).DCaches[0].(*MESICache)
		for _, tc := range cases {
			want := tc.wantWT
			if writeBack {
				want = tc.wantWB
			}
			if want == MsgInvalid {
				continue // a write-through store is posted, not a request
			}
			t.Run(Protocols[proto].Name+"/"+tc.name, func(t *testing.T) {
				r := newRig(t, Protocol(proto), 1, 1)
				dc, ic, n := r.DCaches[0], r.ICaches[0], r.Nodes[0]
				wake := dc.NextWake
				if want == ReqIFetch {
					wake = ic.NextWake
				}
				for n.CanSendReq() {
					n.SendCtrl(Msg{Kind: ReqRead, Addr: rigBase}, r.BNodes[0].ID, 1<<40)
				}
				var sent []MsgKind
				n.Trace = func(_ uint64, dir string, _, _ int, m *Msg) {
					if dir == "tx" {
						sent = append(sent, m.Kind)
					}
				}
				for range 20 {
					if tc.access(dc, ic, r.now) {
						t.Fatalf("cycle %d: the access completed through a full port", r.now)
					}
					if w := wake(r.now); w != r.now {
						t.Fatalf("cycle %d: a refused request sleeps until %d", r.now, w)
					}
					r.step()
				}
				if len(sent) != 0 {
					t.Fatalf("a full port sent %v", sent)
				}
				for !n.outQ.Empty() {
					m, _ := n.outQ.Recv(1 << 40)
					n.msgs.take(m.slot)
				}
				r.step()
				if len(sent) != 1 || sent[0] != want {
					t.Fatalf("the freed port sent %v, want [%v]", sent, want)
				}
				for i := 0; !tc.access(dc, ic, r.now); i++ {
					if i == 1000 {
						t.Fatalf("the %s never completed", tc.name)
					}
					r.step()
				}
			})
		}
	}
}

func TestRandomStressManySeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("long stress")
	}
	for seed := int64(1); seed <= 6; seed++ {
		for _, proto := range []Protocol{WTI, WTU, WBMESI, MOESI} {
			stress(t, proto, 6, 2, 250, seed)
		}
	}
}

// TestCrossProtocolFinalMemoryAgreement runs one seeded, race-free
// workload under every protocol and demands bit-identical final memory.
// Each word has exactly one writer (per-CPU disjoint store partitions),
// so the final value of every word is fixed by per-CPU program order
// alone — any disagreement between protocols is a lost or misapplied
// write, not a legal interleaving difference. Loads roam the whole
// range to generate the cross-CPU sharing traffic that makes the
// write-policy machinery actually work for its result.
func TestCrossProtocolFinalMemoryAgreement(t *testing.T) {
	const (
		ncpu      = 4
		wordsPer  = 6 // 24 words = 3 blocks: heavy false sharing
		opsPerCPU = 150
		seed      = 424242
	)
	type op struct {
		store bool
		addr  uint32
		val   uint32
	}
	addrOf := func(w int) uint32 { return rigBase + uint32(w)*4 }
	// One shared script, generated once so every protocol replays the
	// same per-CPU programs.
	rng := rand.New(rand.NewSource(seed))
	scripts := make([][]op, ncpu)
	val := uint32(1)
	for c := range scripts {
		for i := 0; i < opsPerCPU; i++ {
			if rng.Intn(3) == 0 {
				w := c*wordsPer + rng.Intn(wordsPer) // own partition
				scripts[c] = append(scripts[c], op{store: true, addr: addrOf(w), val: val})
				val++
			} else {
				w := rng.Intn(ncpu * wordsPer) // anywhere: sharing traffic
				scripts[c] = append(scripts[c], op{addr: addrOf(w)})
			}
		}
	}
	run := func(proto Protocol) []uint32 {
		r := newRig(t, proto, ncpu, 2)
		r.checkEvery = 113
		idx := make([]int, ncpu)
		for step := 0; step < 5_000_000; step++ {
			alldone := true
			for c := 0; c < ncpu; c++ {
				if idx[c] >= len(scripts[c]) {
					continue
				}
				alldone = false
				o := scripts[c][idx[c]]
				if o.store {
					if r.DCaches[c].Store(r.now, o.addr, o.val) {
						idx[c]++
					}
				} else if _, ok := r.DCaches[c].Load(r.now, o.addr); ok {
					idx[c]++
				}
			}
			if alldone {
				break
			}
			r.step()
		}
		for c := 0; c < ncpu; c++ {
			if idx[c] < len(scripts[c]) {
				t.Fatalf("%v: cpu %d stuck at op %d", proto, c, idx[c])
			}
		}
		r.settle()
		r.check()
		r.FlushCaches()
		out := make([]uint32, ncpu*wordsPer)
		for w := range out {
			out[w] = r.space.ReadWord(addrOf(w))
		}
		return out
	}
	ref := run(WTI)
	for _, proto := range []Protocol{WTU, WBMESI, MOESI} {
		got := run(proto)
		for w, want := range ref {
			if got[w] != want {
				t.Errorf("%v: final word %d (%#x) = %d, WTI has %d",
					proto, w, addrOf(w), got[w], want)
			}
		}
	}
}

// TestProtocolTable walks Protocols: everything that used to be a
// four-way switch somewhere (names, the constructor, the MOESI rule)
// must agree with the row, and a machine built from the row alone must
// work end to end through the hierarchy's own Step and Pending.
func TestProtocolTable(t *testing.T) {
	for i := range Protocols {
		proto, row := Protocol(i), Protocols[i]
		t.Run(row.Name, func(t *testing.T) {
			if proto.String() != row.Name {
				t.Errorf("String() = %q, row is %q", proto, row.Name)
			}
			if got, err := ParseProtocol(ProtocolNames()[i]); err != nil || got != proto {
				t.Errorf("ParseProtocol(%q) = %v, %v", ProtocolNames()[i], got, err)
			}
			r := newRig(t, proto, 2, 1)
			addr := uint32(rigBase + 0x40)
			r.store(0, addr, 7) // cpu0 owns the block where the policy has owners
			r.settle()
			var parts []string
			if _, ok := r.DCaches[1].Load(r.now, addr); ok {
				t.Fatal("cold remote load hit")
			}
			if !r.Pending(func(part string) { parts = append(parts, part) }) || parts[0] != "cache1 not drained" {
				t.Fatalf("a miss in flight is pending as %q", parts)
			}
			if v := r.load(1, addr); v != 7 {
				t.Fatalf("remote load = %d, want 7", v)
			}
			r.settle()
			if r.Pending(nil) {
				t.Fatal("settled hierarchy still reports pending work")
			}
			r.check()
			// The C2C rule: on DefaultParams a forcing row transfers
			// cache to cache, any other row only when asked.
			if got := r.DCaches[0].Stats().C2CTransfers > 0; got != row.ForcesC2C {
				t.Errorf("cache-to-cache transfer served = %t, row forces it = %t", got, row.ForcesC2C)
			}
		})
	}
}
