package fault

import (
	"repro/internal/noc"
	"repro/internal/sim"
)

// Stats counts the faults a campaign actually injected; campaigns are
// only measurable when the injected adversity is itself measured.
type Stats struct {
	// Drops counts transfers lost on the wire (Inject answered Lost, and
	// the sender is expected to retransmit).
	Drops uint64
	// Delayed counts transfers held back, DelayCycles their summed
	// extra latency.
	Delayed     uint64
	DelayCycles uint64
	// Dups counts duplicate transfers injected; DupsSuppressed counts
	// duplicates discarded by the receiving port's sequence check. The
	// two differ transiently while a duplicate is still in flight.
	Dups           uint64
	DupsSuppressed uint64
	// StallWindows counts bank stall windows opened; StallCycles the
	// summed cycles banks spent refusing delivery.
	StallWindows uint64
	StallCycles  uint64
}

// Net threads a fault Plan between the protocol controllers and any
// noc.Network. It implements noc.Network, and is the one Network whose
// Inject answers noc.Lost. Stats, PortFlits and Reach are the wrapped
// model's: a duplicate is real traffic there, as a spurious
// retransmission occupies real links, and a staged transfer enters the
// model at its source, later than offered, which its Reach covers. See
// the package comment for the fault model; determinism notes:
//
//   - every decision is drawn from splitmix64 streams derived from the
//     plan seed, one independent stream per fault dimension, advanced
//     only inside Inject and Tick (and Skip, Tick's stand-in) — never
//     inside the read-only ArrivalAt/Quiet/Stats queries, whose call
//     counts may legally vary (the engine's wake scheduling probes them);
//   - delayed transfers are staged per source, released in arrival order
//     (keeping the model's per-(source,destination) FIFO) and, within a
//     cycle, before any higher source's fast-path offer (release);
//   - bank stall windows advance once per cycle, in Tick or, for the
//     cycles the network ticker slept through, in Skip — the same draws
//     in the same order, so -noleap is the reference under bankstall too.
type Net struct {
	noc.Network // the wrapped model
	plan        *Plan
	self        sim.Waker // the network's own slot, see Attach

	dropRng  rng
	delayRng rng
	dupRng   rng
	stallRng rng

	// staged holds the transfers not yet injected into the wrapped
	// network, per source node: a delayed original, an in-order
	// follower behind one, or a duplicate.
	staged  []sim.Port[noc.Packet]
	stagedN int
	// released is the first source whose due transfers this cycle's
	// release has not offered yet, as of cycle releasedAt-1.
	released, releasedAt uint64
	// stallUntil[node] is the cycle a bank node's delivery stall ends
	// (exclusive); zero for never-stalled nodes. bankBase maps node ids
	// to bank indices for scope matching.
	stallUntil []uint64
	bankBase   int

	st Stats
}

// PRNG stream indices (see streamRNG).
const (
	streamDrop = iota
	streamDelay
	streamDup
	streamStall
)

// Wrap threads plan between the controllers and inner, a network of
// nodes endpoints. bankBase is the node id of bank 0 (nodes
// bankBase..nodes-1 are memory banks, the scope targets of bankstall
// directives). A nil or empty plan is
// rejected — callers keep the unwrapped network on the zero-fault path
// so it stays byte-identical to a build without the fault layer.
func Wrap(inner noc.Network, plan *Plan, nodes, bankBase int) *Net {
	if plan.Empty() {
		panic("fault: Wrap needs a non-empty plan")
	}
	return &Net{
		Network:    inner,
		plan:       plan,
		dropRng:    streamRNG(plan.Seed, streamDrop),
		delayRng:   streamRNG(plan.Seed, streamDelay),
		dupRng:     streamRNG(plan.Seed, streamDup),
		stallRng:   streamRNG(plan.Seed, streamStall),
		staged:     make([]sim.Port[noc.Packet], nodes),
		stallUntil: make([]uint64, nodes),
		bankBase:   bankBase,
	}
}

// FaultStats returns the injected-fault counters.
func (f *Net) FaultStats() Stats { return f.st }

// Inject implements noc.Network. The fault draws happen here, once per
// offered transfer, in a fixed order (drop, delay, duplicate) so a
// campaign's decision sequence is a pure function of the plan seed and
// the traffic.
func (f *Net) Inject(p noc.Packet, now uint64) noc.Fate {
	if r := firstRate(f.plan.Drop, p.Src, p.Dst); r > 0 && f.dropRng.chance(r) {
		f.st.Drops++
		return noc.Lost
	}
	extra := 0
	if d := f.plan.delayFor(p.Src, p.Dst); d != nil && f.delayRng.chance(d.Rate) {
		extra = d.Cycles
		f.st.Delayed++
		f.st.DelayCycles += uint64(d.Cycles)
	}
	dup := false
	if r := firstRate(f.plan.Dup, p.Src, p.Dst); r > 0 && f.dupRng.chance(r) {
		dup = true
		f.st.Dups++
	}
	if extra == 0 && !dup && f.staged[p.Src].Empty() {
		// Zero-fault fast path: plain backpressure, behind the due staged
		// transfers of the lower sources, which a cycle offers first.
		f.release(uint64(p.Src), now)
		if fate := f.Network.Inject(p, now); fate != noc.Sent {
			return fate
		}
	} else {
		// Stage the original (behind any earlier staged transfer from this
		// source, preserving its order) and, for a duplication, the marked
		// copy right behind it.
		q := &f.staged[p.Src]
		q.Send(p, now+uint64(extra))
		if f.stagedN++; dup {
			p.Dup = true
			q.Send(p, now+uint64(extra))
			f.stagedN++
		}
	}
	f.self.Wake(now) // ticked while anything is in flight; a crossed packet woke nobody
	return noc.Sent
}

// Attach implements noc.Network; the wrapped model announces the arrivals.
// Otherwise the wrapper only moves answers later (a stall window, the
// last delivery), which needs no Wake: a ticker woken too early is ticked
// on a cycle the naive schedule ticks it too.
func (f *Net) Attach(self sim.Waker, nodes []sim.Waker) {
	f.self = self
	f.Network.Attach(self, nodes)
}

// Tick implements noc.Network: one cycle of Skip's stall windows, release
// staged transfers whose delay elapsed, then tick the wrapped model.
func (f *Net) Tick(now uint64) uint64 {
	f.Skip(now, now+1)
	f.release(uint64(len(f.staged)), now)
	f.Network.Tick(now)
	return f.NextWake(now + 1)
}

// release offers the wrapped model, in source order, the due staged
// transfers of the sources below below that this cycle has not offered
// yet: a model takes a cycle's offers in ascending source order.
func (f *Net) release(below, now uint64) {
	if f.releasedAt != now+1 {
		f.released, f.releasedAt = 0, now+1
	}
	for ; f.stagedN > 0 && f.released < below; f.released++ {
		q := &f.staged[f.released]
		// A refused Inject is backpressure: keep order, retry next cycle.
		for q.Ready(now) && f.Network.Inject(*q.Head(), now) == noc.Sent {
			q.Recv(now)
			f.stagedN--
		}
	}
}

// Skip implements sim.Sleeper, which is what core registers the wrapper
// as: the stall windows advance on every cycle, executed or not — one
// draw per unstalled bank per cycle, in node order.
func (f *Net) Skip(from, to uint64) {
	if len(f.plan.BankStall) == 0 {
		return
	}
	for now := from; now < to; now++ {
		for node := f.bankBase; node < len(f.stallUntil); node++ {
			if f.stallUntil[node] > now {
				f.st.StallCycles++
				continue
			}
			s := f.plan.stallFor(node - f.bankBase)
			if s != nil && s.Rate > 0 && f.stallRng.chance(s.Rate) {
				f.stallUntil[node] = now + uint64(s.Window)
				f.st.StallWindows++
				f.st.StallCycles++
			}
		}
	}
}

// ArrivalAt implements noc.Network: the later of the wrapped model's
// arrival and the end of the node's stall window, which no arrive
// announces. Deliver may still yield no packet at that cycle, when only
// a suppressed duplicate heads the queue; endpoints already tolerate
// that (a Deliver miss ends their receive loop).
func (f *Net) ArrivalAt(node int) uint64 { return max(f.Network.ArrivalAt(node), f.stallUntil[node]) }

// Deliver implements noc.Network, discarding duplicate transfers (the
// receiving port's sequence check) so protocol sinks only ever see
// each message once.
func (f *Net) Deliver(node int, now uint64) (noc.Packet, bool) {
	if f.stallUntil[node] > now {
		return noc.Packet{}, false
	}
	for {
		if p, ok := f.Network.Deliver(node, now); !ok || !p.Dup {
			return p, ok
		}
		f.st.DupsSuppressed++
	}
}

// Quiet implements noc.Network: staged transfers count as in flight.
func (f *Net) Quiet() bool { return f.stagedN == 0 && f.Network.Quiet() }

// NextWake implements noc.Network with the blanket veto: while
// anything is in flight the fault layer may draw from its RNG streams
// or advance stall windows on any Tick, so no cycle is provably dead.
// The network ticker therefore only sleeps in fault runs while the
// network is completely quiet — which is also the only time the
// per-cycle fault machinery is skippable (no RNG draw is lost).
func (f *Net) NextWake(now uint64) uint64 {
	if f.Quiet() {
		return ^uint64(0)
	}
	return now
}
