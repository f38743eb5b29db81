package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/coherence"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/sim"
)

// System is one fully wired platform ready to run a loaded image.
type System struct {
	Cfg    Config
	Layout mem.Layout
	Engine *sim.Engine
	Net    noc.Network
	Space  *mem.Space

	// CPUs are the interpreters of a machine built from an image (empty
	// for one built by BuildStreams); fronts are whatever fills the CPU
	// slots, as the clusters see them.
	CPUs   []*cpu.CPU
	fronts []frontEnd
	halted int // fronts[:halted] have halted, which is final

	// Hierarchy is everything below the CPUs (DCaches, ICaches, Nodes,
	// Banks, BNodes, Ports) with its invariant checks and FlushCaches.
	// Its Step is for owners without an engine; a System advances
	// through Engine.
	*coherence.Hierarchy

	// Obs is the attached observability recorder (nil when disabled);
	// see AttachObserver.
	Obs *obs.Recorder

	// FNet is the fault-injection wrapper around Net when Cfg.Fault is
	// non-empty; nil on the zero-fault path.
	FNet *fault.Net

	// fail is the machine's first failure: a port's spent
	// retransmission budget (polled by failed) or a runtime invariant
	// violation (latched by EnableRuntimeChecks). Run ends on it.
	fail error
}

// Build wires a platform for cfg whose CPUs interpret the image. Every
// CPU resets to the image entry with its conventional stack pointer
// (runtime-based programs install their own stacks immediately).
func Build(cfg Config, img *mem.Image) (*System, error) {
	sys, err := build(cfg, func(s *System, i int) frontEnd {
		c := cpu.New(i, s.ICaches[i], &s.ICaches[i].Fetches, s.DCaches[i])
		c.Reset(img.Entry, s.Layout.StackTop(i), s.Cfg.Mem.NumCPUs)
		s.CPUs = append(s.CPUs, c)
		return c
	})
	if err == nil {
		img.LoadInto(sys.Space)
		sys.SeedCode(img.Code()) // decoded once, ahead of the run: fills allocate nothing
	}
	return sys, err
}

// BuildStreams wires the same platform with no program: CPU i replays
// ops references drawn from gen(i), think cycles apart, straight into
// its data cache. With ops == 0 the CPUs are idle from the first cycle
// (gen may be nil) and the caches can be driven by hand, as Table 1's
// probes do.
func BuildStreams(cfg Config, gen func(cpu int) func() Ref, ops, think uint64) (*System, error) {
	return build(cfg, func(s *System, i int) frontEnd {
		c := &streamCPU{dc: s.DCaches[i], left: ops, think: think}
		if gen != nil {
			c.next = gen(i)
		}
		return c
	})
}

// build wires the platform; front makes the front-end of CPU slot i
// once the slot's caches exist.
func build(cfg Config, front func(s *System, i int) frontEnd) (*System, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	n := cfg.Mem.NumCPUs
	layout := mem.DefaultLayout(n)
	amap := cfg.Arch.BuildMap(layout)

	var net noc.Network
	nodes := n + cfg.Arch.NumBanks(n)
	switch cfg.NoC {
	case MeshNet:
		net = noc.NewMesh(noc.DefaultMeshConfig(nodes))
	case BusNet:
		net = noc.NewBus(noc.DefaultBusConfig(nodes))
	default:
		net = noc.NewGMN(noc.DefaultGMNConfig(nodes))
	}

	// The fault layer wraps the network only when a plan asks for it;
	// otherwise the controllers talk to the bare model and the run is
	// byte-identical to a build without the fault layer.
	var fnet *fault.Net
	if !cfg.Fault.Empty() {
		fnet = fault.Wrap(net, cfg.Fault, nodes, n)
		net = fnet
	}

	space := mem.NewSpace()
	sys := &System{
		Cfg:       cfg,
		Layout:    layout,
		Engine:    sim.NewEngine(),
		Net:       net,
		Space:     space,
		Hierarchy: coherence.NewHierarchy(net, space, amap, cfg.Mem, cfg.Protocol),
		FNet:      fnet,
	}
	for i := 0; i < n; i++ {
		sys.fronts = append(sys.fronts, front(sys, i))
	}

	// Tick order: each CPU with its caches and node, then the bank
	// nodes, then the network. Messages are latched, so no message is
	// seen the cycle it is sent; the GMN's crossing at the offer matches
	// its Tick because nodes offer in id order before its turn. Every
	// ticker answers the sim.Sleeper contract; the only input one gets
	// from another comes through the network, which is handed every
	// node's waker (in node-id order) and its own.
	wakers := make([]sim.Waker, 0, len(sys.Ports))
	for i, f := range sys.fronts {
		cl := &cluster{cpu: f, dc: sys.DCaches[i], ic: sys.ICaches[i], node: sys.Nodes[i], sys: sys, net: net}
		// Only an interpreter on the scheduled engine looks ahead: the
		// reference schedule ticks every cycle.
		if !cfg.DisableLeap {
			cl.core, _ = f.(*cpu.CPU)
		}
		wakers = append(wakers, sys.register("cpus", cl))
	}
	for _, nd := range sys.BNodes {
		wakers = append(wakers, sys.register("banks", nd))
	}
	net.Attach(sys.register("noc", net), wakers)
	return sys, nil
}

// register adds a ticker to the schedule. Under Cfg.DisableLeap it
// registers the bare Tick, which the engine then runs on every cycle —
// the naive reference schedule the equivalence tests compare against.
func (s *System) register(name string, t sim.Ticker) sim.Waker {
	if tick := t.Tick; s.Cfg.DisableLeap {
		t = sim.TickFunc(func(now uint64) { tick(now) })
	}
	return s.Engine.Register(name, t)
}

// frontEnd is what fills a cluster's CPU slot: the wake contract,
// "halted" and the counters. The SR32 interpreter and the synthetic
// stream CPU both do.
type frontEnd interface {
	Tick(now uint64)
	sim.Sleeper
	Halted() bool
	Stats() *cpu.Stats
}

// Ref is one memory reference of a stream CPU.
type Ref struct {
	Store bool
	Addr  uint32
	Data  uint32
}

// streamCPU replays a reference stream against a data cache with a
// fixed think time between completed references. It fills the same
// slot as the SR32 interpreter and counts in the interpreter's
// cpu.Stats: a completed reference is one instruction and one load or
// store, a cycle spent waiting on the cache one data stall.
type streamCPU struct {
	dc    coherence.DataCache
	next  func() Ref
	think uint64
	left  uint64

	pending bool
	ref     Ref
	nextAt  uint64
	done    bool
	st      cpu.Stats
}

// Halted reports whether the stream is exhausted: the stream CPU's
// counterpart of the interpreter's HALT.
func (c *streamCPU) Halted() bool { return c.done }

func (c *streamCPU) Stats() *cpu.Stats { return &c.st }

func (c *streamCPU) Tick(now uint64) {
	if c.done || now < c.nextAt {
		return
	}
	if !c.pending {
		if c.left == 0 {
			c.done = true
			return
		}
		c.left--
		c.ref = c.next()
		c.pending = true
	}
	if c.ref.Store {
		if !c.dc.Store(now, c.ref.Addr, c.ref.Data) {
			c.st.DataStallCycles++
			return
		}
		c.st.Stores++
	} else {
		if _, ok := c.dc.Load(now, c.ref.Addr); !ok {
			c.st.DataStallCycles++
			return
		}
		c.st.Loads++
	}
	c.st.Instructions++
	c.pending = false
	c.nextAt = now + 1 + c.think
}

// NextWake sleeps through think time and once the stream is exhausted;
// a reference in progress polls the cache every cycle.
func (c *streamCPU) NextWake(now uint64) uint64 {
	if c.done {
		return sim.NoWake
	}
	return max(c.nextAt, now)
}

// Skip counts nothing: the CPU only sleeps through think time and past
// the end of its stream.
func (c *streamCPU) Skip(from, to uint64) {}

// cluster is one CPU with its caches and its NoC port, scheduled as a
// unit. A cluster only changes state in its own Tick — everything that
// reaches it from outside is latched through the NoC and consumed by
// its node — so while it sleeps it is frozen, and its wake is the
// earliest of its parts'.
//
// For the same reason it may run its core ahead of the clock: once the
// four parts have ticked, nothing reaches the cluster before the earliest
// of its caches' and node's next events (arrivals on their way included)
// and the network's Reach for its node, and nobody looks before the
// engine's Horizon. Up to there the core executes every cycle that
// is local to it (cpu.CPU.RunAhead).
type cluster struct {
	cpu  frontEnd
	dc   coherence.DataCache
	ic   *coherence.ICache
	node *coherence.Node

	core  *cpu.CPU // cpu, when it is an interpreter on the scheduled engine
	sys   *System
	net   noc.Network
	ahead uint64 // the core's: first cycle it has not executed
}

// Tick answers NextWake(now+1): the parts' wakes bound the run-ahead too.
// The node's Veto does not: it holds the next cycle for a stalled core,
// and a core that runs ahead executes that cycle in its burst.
func (c *cluster) Tick(now uint64) uint64 {
	c.cpu.Tick(now)
	c.dc.Tick(now)
	c.ic.Tick(now)
	next, at := min(c.node.Tick(now), c.dc.NextWake(now+1), c.ic.NextWake(now+1)), now+1
	// An active core only: a stalled or halted one has nothing to run. Not
	// while a port is one loss from its budget: spending it ends the run with
	// -noleap's pcs. A port that gets there later waits its last backoff (1024 cycles).
	if c.core != nil && next > at && c.core.NextWake(at) == at && !c.sys.nearBudget() {
		if h := min(c.net.Reach(c.node.ID, now), next); h > at {
			c.ahead = c.core.RunAhead(at, min(h, c.sys.Engine.Horizon()))
			at = c.ahead
		}
	}
	return max(at, min(c.cpu.NextWake(at), next, c.node.Veto(at)))
}

func (c *cluster) NextWake(now uint64) uint64 {
	// A core ahead of the clock answers as at the first cycle it has not
	// executed: the horizon it ran to was the other parts' earliest wake,
	// and an arrival pushed since is no earlier (Reach). One that is
	// falls through, gets the cluster ticked behind its core, and the core
	// panics.
	if now < c.ahead && c.net.ArrivalAt(c.node.ID) >= c.ahead {
		now = c.ahead
	}
	return max(now, min(c.cpu.NextWake(now), c.dc.NextWake(now), c.ic.NextWake(now), c.node.NextWake(now), c.node.Veto(now)))
}

// Skip charges the stalled core's retries (the core forwards its
// ports' share) and the node's backoff wait; the caches' own Ticks
// count nothing while asleep.
func (c *cluster) Skip(from, to uint64) {
	c.cpu.Skip(from, to)
	c.node.Skip(from, to)
}

// NextWake reports the earliest cycle at or after now at which any
// component must run — now itself if one must — or sim.NoWake when only
// the run deadline can re-awaken the system: the pure fold of the answers
// the engine asks for when a Step or Run opens; within a run each Tick
// answers its own, and a Wake pushes one earlier.
func (s *System) NextWake(now uint64) uint64 { return s.Engine.NextWake(now) }

// AllHalted reports whether every CPU has executed HALT or exhausted
// its stream.
func (s *System) AllHalted() bool {
	for ; s.halted < len(s.fronts); s.halted++ {
		if !s.fronts[s.halted].Halted() {
			return false
		}
	}
	return true
}

// Quiescent reports whether, additionally, no protocol activity is in
// flight anywhere.
func (s *System) Quiescent() bool { return s.AllHalted() && !s.Pending(nil) }

// Run executes until every CPU halts (the measured execution time, as
// in the paper's Figure 4), then drains in-flight traffic so the final
// memory state is stable for checking. It returns the results. Either
// phase also ends on the machine's first failure, which Run returns.
func (s *System) Run() (*Result, error) {
	cycles, err := s.Engine.Run(s.Cfg.MaxCycles, func() bool { return s.failed() || s.AllHalted() })
	if err = cmp.Or(s.fail, err); err != nil {
		return nil, fmt.Errorf("core: %w (pcs: %v)", err, s.pcs())
	}
	// Drain phase: not part of the measured execution time.
	_, err = s.Engine.Run(1_000_000, func() bool { return s.failed() || s.Quiescent() })
	if s.fail != nil && !errors.Is(s.fail, coherence.ErrLivenessBudget) {
		return nil, fmt.Errorf("core: %w", s.fail) // a violation, not a hang
	} else if err = cmp.Or(s.fail, err); err != nil {
		return nil, fmt.Errorf("core: drain did not quiesce: %w", err)
	}
	return s.collect(cycles), nil
}

// failed reports whether the machine has failed, latching a port's spent
// retransmission budget (fault plans only) as a replayable diagnostic.
func (s *System) failed() bool {
	if s.fail == nil && s.FNet != nil {
		for _, nd := range s.Ports {
			if err := nd.RetryErr(); err != nil {
				s.fail = fmt.Errorf("%w (replay: -fault %q)", err, s.Cfg.Fault.String())
				break
			}
		}
	}
	return s.fail != nil
}

// nearBudget reports whether a drop plan has a port one loss from its budget (or past it).
func (s *System) nearBudget() bool {
	return s.FNet != nil && len(s.Cfg.Fault.Drop) > 0 && slices.ContainsFunc(s.Ports, (*coherence.Node).AtBudget)
}

// EnableRuntimeChecks arranges for CheckRuntime to run every `every`
// cycles for the rest of the run (mcsim -check). The first violation is
// the machine's failure: Run ends at the check's cycle (or at the end of
// a leap that crossed it) and returns it — at ~1µs per check on small
// systems, every=1 is usable in tests; sparser intervals bound the
// overhead on long experiments while still catching invariant drift
// close to where it happens.
func (s *System) EnableRuntimeChecks(every uint64) {
	if every == 0 {
		return
	}
	s.Engine.Every(every, func(now uint64) {
		if s.fail == nil {
			if err := s.CheckRuntime(); err != nil {
				s.fail = fmt.Errorf("runtime invariant violated at cycle %d: %w", now, err)
			}
		}
	})
}

// pcs names where each running CPU stands: an interpreter's pc, a
// stream CPU's count of completed references.
func (s *System) pcs() []string {
	var out []string
	for i, f := range s.fronts {
		if c, ok := f.(*cpu.CPU); ok && !c.Halted() {
			out = append(out, fmt.Sprintf("cpu%d@%#x", i, c.PC()))
		} else if !f.Halted() {
			out = append(out, fmt.Sprintf("cpu%d@op%d", i, f.Stats().Instructions))
		}
	}
	return out
}
