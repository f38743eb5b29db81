package exp

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/stats"
)

// probeRig drives data caches directly (no program) so each protocol
// transaction can be measured in isolation: blocking latency in cycles
// and cost in hops, where one hop is one NoC traversal — the unit of
// the paper's Table 1.
type probeRig struct {
	sys *core.System
}

// newProbeRig builds a 4-CPU Architecture-2 platform with no program
// and no references of its own, leaving the protocol machinery idle
// for directed use.
func newProbeRig(proto coherence.Protocol) (*probeRig, error) {
	sys, err := core.BuildStreams(core.DefaultConfig(proto, mem.Arch2, 4), nil, 0, 0)
	if err != nil {
		return nil, err
	}
	rig := &probeRig{sys: sys}
	if err := rig.settle(); err != nil {
		return nil, err
	}
	return rig, nil
}

// settle runs until the platform is fully quiescent.
func (p *probeRig) settle() error {
	_, err := p.sys.Engine.Run(1_000_000, func() bool {
		return p.sys.AllHalted() && p.sys.Quiescent()
	})
	return err
}

// measure repeatedly polls op each cycle until it reports done, then
// drains the platform. It returns the blocking latency (cycles until
// op reported done) and the hop count (packets the whole transaction
// put on the NoC, including its non-blocking tail).
func (p *probeRig) measure(op func(now uint64) bool) (blocking uint64, hops uint64, err error) {
	eng := p.sys.Engine
	before := p.sys.Net.Stats().Packets
	start := eng.Now()
	for i := 0; ; i++ {
		if op(eng.Now()) {
			break
		}
		eng.Step()
		if i > 100000 {
			return 0, 0, fmt.Errorf("exp: probe did not complete")
		}
	}
	blocking = eng.Now() - start
	if err := p.settle(); err != nil {
		return 0, 0, err
	}
	hops = p.sys.Net.Stats().Packets - before
	return blocking, hops, nil
}

func (p *probeRig) load(cpu int, addr uint32) (uint64, uint64, error) {
	return p.measure(func(now uint64) bool {
		_, ok := p.sys.DCaches[cpu].Load(now, addr)
		return ok
	})
}

func (p *probeRig) store(cpu int, addr uint32, v uint32) (uint64, uint64, error) {
	return p.measure(func(now uint64) bool {
		return p.sys.DCaches[cpu].Store(now, addr, v)
	})
}

// warm performs an access and settles, to set up line states.
func (p *probeRig) warmLoad(cpu int, addr uint32) error {
	_, _, err := p.load(cpu, addr)
	return err
}

func (p *probeRig) warmStore(cpu int, addr uint32) error {
	_, _, err := p.store(cpu, addr, 0xdead)
	return err
}

// table1Scenario is one row of the paper's Table 1.
type table1Scenario struct {
	name string
	// prep puts the target block into the scenario's state.
	prep func(p *probeRig, addr uint32) error
	// op is the measured access, performed by CPU 0.
	op func(p *probeRig, addr uint32) (uint64, uint64, error)
}

var table1Scenarios = []table1Scenario{
	{
		name: "read hit",
		prep: func(p *probeRig, a uint32) error { return p.warmLoad(0, a) },
		op:   func(p *probeRig, a uint32) (uint64, uint64, error) { return p.load(0, a) },
	},
	{
		name: "read miss (clean)",
		prep: func(p *probeRig, a uint32) error { return nil },
		op:   func(p *probeRig, a uint32) (uint64, uint64, error) { return p.load(0, a) },
	},
	{
		name: "read miss (remote dirty)",
		prep: func(p *probeRig, a uint32) error { return p.warmStore(1, a) },
		op:   func(p *probeRig, a uint32) (uint64, uint64, error) { return p.load(0, a) },
	},
	{
		name: "write miss (no sharers)",
		prep: func(p *probeRig, a uint32) error { return nil },
		op:   func(p *probeRig, a uint32) (uint64, uint64, error) { return p.store(0, a, 1) },
	},
	{
		name: "write miss (2 sharers)",
		prep: func(p *probeRig, a uint32) error {
			if err := p.warmLoad(1, a); err != nil {
				return err
			}
			return p.warmLoad(2, a)
		},
		op: func(p *probeRig, a uint32) (uint64, uint64, error) { return p.store(0, a, 1) },
	},
	{
		name: "write hit S (1 other sharer)",
		prep: func(p *probeRig, a uint32) error {
			if err := p.warmLoad(0, a); err != nil {
				return err
			}
			return p.warmLoad(1, a)
		},
		op: func(p *probeRig, a uint32) (uint64, uint64, error) { return p.store(0, a, 1) },
	},
	{
		// The paper's Figure 2: the 6-hop write-allocate — the fetched
		// block is dirty in a remote cache AND the victim line is dirty,
		// so a background writeback (+2 n.b.) rides along.
		name: "write miss (remote dirty, dirty victim)",
		prep: func(p *probeRig, a uint32) error {
			if err := p.warmStore(0, a+4096); err != nil { // dirty victim, same set
				return err
			}
			return p.warmStore(1, a) // remote dirty target
		},
		op: func(p *probeRig, a uint32) (uint64, uint64, error) { return p.store(0, a, 1) },
	},
	{
		name: "write hit E",
		prep: func(p *probeRig, a uint32) error { return p.warmLoad(0, a) },
		op:   func(p *probeRig, a uint32) (uint64, uint64, error) { return p.store(0, a, 1) },
	},
	{
		name: "write hit M",
		prep: func(p *probeRig, a uint32) error { return p.warmStore(0, a) },
		op:   func(p *probeRig, a uint32) (uint64, uint64, error) { return p.store(0, a, 2) },
	},
}

// Table1 measures every scenario under both protocols. Expected shape
// (paper's Table 1): WTI reads 0/2 hops, writes 2 or 4 hops
// non-blocking; WB reads 0/2/4, writes 2–4 hops blocking, hits on E/M
// free. Note "write hit E" differs between protocols by design: WTI
// has no E state, so it behaves like any other write.
func Table1(proto coherence.Protocol) (*stats.Table, error) {
	t := stats.NewTable(
		fmt.Sprintf("Table 1 — request costs, %v protocol", proto),
		"processor action", "messages", "path hops", "blocking cycles")
	// A fresh block per scenario, spread across the shared region so
	// scenarios never interfere through the directory or the caches.
	l := mem.DefaultLayout(4)
	for i, sc := range table1Scenarios {
		rig, err := newProbeRig(proto)
		if err != nil {
			return nil, err
		}
		addr := l.SharedBase + uint32(i)*4096
		if err := sc.prep(rig, addr); err != nil {
			return nil, fmt.Errorf("exp: table1 %q prep: %w", sc.name, err)
		}
		blocking, msgs, err := sc.op(rig, addr)
		if err != nil {
			return nil, fmt.Errorf("exp: table1 %q: %w", sc.name, err)
		}
		t.AddRow(sc.name, msgs, pathHops(msgs), blocking)
	}
	return t, nil
}

// pathHops derives the paper's hop unit — serial NoC traversals on the
// transaction's critical path — from the measured message count.
// Invalidations to k sharers and their k acknowledgements overlap, so
// they contribute one hop each regardless of k: any transaction with
// more than two messages has a 4-hop critical path
// (request → commands → acknowledgements → response).
func pathHops(msgs uint64) uint64 {
	if msgs > 4 {
		return 4
	}
	return msgs
}

// renderTable1 is Table 1 under both of the paper's protocols.
func renderTable1(Params, []Run, Results) ([]*stats.Table, error) {
	var out []*stats.Table
	for _, proto := range []coherence.Protocol{coherence.WTI, coherence.WBMESI} {
		t, err := Table1(proto)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}
