package core

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// System is one fully wired platform ready to run a loaded image.
type System struct {
	Cfg     Config
	Layout  mem.Layout
	Engine  *sim.Engine
	Net     noc.Network
	Space   *mem.Space
	AddrMap *mem.AddrMap

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

	// runtimeCheckErr records the first runtime-invariant violation
	// when EnableRuntimeChecks is active; Run surfaces it.
	runtimeCheckErr   error
	runtimeCheckCycle uint64
}

// Build wires a platform for cfg whose CPUs interpret the image. Every
// CPU resets to the image entry with its conventional stack pointer
// (runtime-based programs install their own stacks immediately).
func Build(cfg Config, img *mem.Image) (*System, error) {
	sys, err := build(cfg, func(s *System, i int) frontEnd {
		c := cpu.New(i, s.ICaches[i], &s.ICaches[i].Fetches, s.DCaches[i])
		c.Reset(img.Entry, s.Layout.StackTop(i), s.Cfg.NumCPUs)
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
// ops references of gen(i), think cycles apart, straight into its data
// cache. With ops == 0 the CPUs are idle from the first cycle (gen may
// be nil) and the caches can be driven by hand, as Table 1's probes do.
func BuildStreams(cfg Config, gen func(cpu int) trace.Generator, ops, think uint64) (*System, error) {
	return build(cfg, func(s *System, i int) frontEnd {
		var g trace.Generator
		if gen != nil {
			g = gen(i)
		}
		return trace.NewCPU(i, s.DCaches[i], g, ops, think)
	})
}

// build wires the platform; front makes the front-end of CPU slot i
// once the slot's caches exist.
func build(cfg Config, front func(s *System, i int) frontEnd) (*System, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	n := cfg.NumCPUs
	layout := mem.DefaultLayout(n)
	amap := cfg.Arch.BuildMap(layout)

	var net noc.Network
	switch nodes := n + cfg.Arch.NumBanks(n); cfg.NoC {
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
		fnet = fault.Wrap(net, cfg.Fault, n)
		net = fnet
	}

	space := mem.NewSpace()
	sys := &System{
		Cfg:       cfg,
		Layout:    layout,
		Engine:    sim.NewEngine(),
		Net:       net,
		Space:     space,
		AddrMap:   amap,
		Hierarchy: coherence.NewHierarchy(net, space, amap, cfg.Mem, cfg.Protocol),
		FNet:      fnet,
	}
	for i := 0; i < n; i++ {
		sys.fronts = append(sys.fronts, front(sys, i))
	}

	// Tick order: each CPU with its caches and node, then the bank
	// nodes deliver/respond, then the network advances. All
	// cross-component messages are latched, so this order is a
	// convention, not a correctness requirement. Every ticker answers
	// the sim.Sleeper contract; the only input one gets from another
	// comes through the network, which is handed every node's waker (in
	// node-id order) and its own.
	wakers := make([]sim.Waker, 0, len(sys.Ports))
	for i, f := range sys.fronts {
		cl := &cluster{cpu: f, dc: sys.DCaches[i], ic: sys.ICaches[i], node: sys.Nodes[i], eng: sys.Engine, net: net}
		// Only an interpreter on the scheduled engine looks ahead: the
		// reference schedule ticks every cycle, so its lookahead is 0.
		if cl.core, _ = f.(*cpu.CPU); cl.core != nil && !cfg.DisableLeap {
			cl.lookahead = net.MinTransit()
		}
		wakers = append(wakers, sys.register("cpus", cl))
	}
	for _, nd := range sys.BNodes {
		wakers = append(wakers, sys.register("banks", nd))
	}
	net.Attach(sys.register("noc", net), wakers)
	// Liveness watchdog: under a fault plan, a port that burns through
	// its retransmission budget aborts the run right away with a
	// replayable diagnostic instead of limping to the cycle deadline.
	if fnet != nil {
		sys.Engine.Watchdog(func(now uint64) error {
			for _, nd := range sys.Ports {
				if err := nd.RetryErr(); err != nil {
					return fmt.Errorf("%w (replay: -fault %q)", err, cfg.Fault.String())
				}
			}
			return nil
		})
	}
	return sys, nil
}

// register adds a ticker to the schedule. Under Cfg.DisableLeap it
// registers the bare Tick, which the engine then runs on every cycle —
// the naive reference schedule the equivalence tests compare against.
func (s *System) register(name string, t sim.Ticker) sim.Waker {
	if s.Cfg.DisableLeap {
		t = sim.TickFunc(t.Tick)
	}
	return s.Engine.Register(name, t)
}

// frontEnd is what fills a cluster's CPU slot: the wake contract,
// "halted" and the counters. The SR32 interpreter and the synthetic
// stream CPU both do.
type frontEnd interface {
	sim.Ticker
	sim.Sleeper
	Halted() bool
	Stats() *cpu.Stats
}

// cluster is one CPU with its caches and its NoC port, scheduled as a
// unit. A cluster only changes state in its own Tick — everything that
// reaches it from outside is latched through the NoC and consumed by
// its node — so while it sleeps it is frozen, and its wake is the
// earliest of its parts'.
//
// For the same reason it may run its core ahead of the clock: once the
// four parts have ticked, nothing reaches the cluster before the earliest
// of its caches' and node's next events (arrivals on their way included)
// and now + lookahead, the network's MinTransit, and nobody looks before
// the engine's Horizon. Up to there the core executes every cycle that
// is local to it (cpu.CPU.RunAhead).
type cluster struct {
	cpu  frontEnd
	dc   coherence.DataCache
	ic   *coherence.ICache
	node *coherence.Node

	core      *cpu.CPU // cpu, when it is an interpreter
	eng       *sim.Engine
	net       noc.Network
	lookahead uint64
	ahead     uint64 // the core's: first cycle it has not executed
}

func (c *cluster) Tick(now uint64) {
	c.cpu.Tick(now)
	c.dc.Tick(now)
	c.ic.Tick(now)
	c.node.Tick(now)
	// An active core only: a stalled or halted one has nothing to run.
	if h := now + c.lookahead; h > now+1 && c.core.NextWake(now+1) == now+1 {
		h = min(h, c.eng.Horizon(), c.dc.NextWake(now+1), c.ic.NextWake(now+1), c.node.NextWake(now+1))
		c.ahead = c.core.RunAhead(now+1, h)
	}
}

func (c *cluster) NextWake(now uint64) uint64 {
	// A core ahead of the clock answers for the cluster: the horizon it
	// ran to was the other parts' earliest wake, and an arrival pushed
	// since is no earlier (MinTransit). One that is falls through, gets
	// the cluster ticked behind its core, and the core panics.
	if now < c.ahead && c.net.ArrivalAt(c.node.ID) >= c.ahead {
		return c.ahead
	}
	w := c.cpu.NextWake(now)
	if w <= now {
		return now
	}
	return min(w, c.dc.NextWake(now), c.ic.NextWake(now), c.node.NextWake(now))
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
// the run deadline can re-awaken the system. It is the pure fold of the
// per-ticker answers the engine schedules by.
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
// memory state is stable for checking. It returns the results.
func (s *System) Run() (*Result, error) {
	cycles, err := s.Engine.Run(s.Cfg.MaxCycles, s.AllHalted)
	if err != nil {
		err = fmt.Errorf("core: %w (pcs: %v)", err, s.pcs())
	} else if _, drainErr := s.Engine.Run(1_000_000, s.Quiescent); drainErr != nil {
		// Drain phase: not part of the measured execution time.
		err = fmt.Errorf("core: drain did not quiesce: %w", drainErr)
	}
	if s.runtimeCheckErr != nil {
		// An invariant violation explains a lot more than the hang it
		// may have caused; report it even if the run timed out.
		return nil, fmt.Errorf("core: runtime invariant violated at cycle %d: %w",
			s.runtimeCheckCycle, s.runtimeCheckErr)
	}
	if err != nil {
		return nil, err
	}
	return s.collect(cycles), nil
}

// EnableRuntimeChecks arranges for CheckRuntime to run every `every`
// cycles for the rest of the run (mcsim -check). The first violation is
// recorded and turned into an error by Run — at ~1µs per check on small
// systems, every=1 is usable in tests; sparser intervals bound the
// overhead on long experiments while still catching invariant drift
// close to where it happens.
func (s *System) EnableRuntimeChecks(every uint64) {
	if every == 0 {
		return
	}
	s.Engine.Every(every, func(now uint64) {
		if s.runtimeCheckErr == nil {
			if err := s.CheckRuntime(); err != nil {
				s.runtimeCheckErr = err
				s.runtimeCheckCycle = now
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
