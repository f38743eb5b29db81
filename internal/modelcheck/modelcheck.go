// Package modelcheck exhaustively enumerates the reachable state space
// of a small configured system — the coherence.Hierarchy the simulator
// itself wires (any row of coherence.Protocols, real directory banks)
// over the real GMN interconnect, stepped by Hierarchy.Step, whose
// per-cycle order is the one the simulator's tickers are registered in
// — and checks coherence invariants in every reachable state.
//
// The explorer is a breadth-first search over *joint CPU choices*: each
// cycle, every idle CPU either stays silent or initiates one operation
// from a small alphabet (load / store-v / swap on the scoped
// addresses); a CPU with an operation in flight keeps polling it, as
// the cycle-accurate CPU model does. Because the simulated hardware is
// deterministic, a state is fully identified by the choice path that
// produced it, so the search needs no snapshot/restore support: a state
// is re-entered by replaying its path from reset, once per transition
// into it, its frontier entry keeping what the search reads of it
// later. States are deduplicated by a 128-bit FNV hash of a byte
// encoding (coherence.Enc) of the complete micro-architectural state
// (cache lines, pending transactions, write buffers, directory entries,
// node FIFOs — each component appends its own, Hierarchy.Fingerprint —
// plus in-flight NoC packets and the scoped memory words), with all
// times expressed relative to the current cycle so equivalent states
// reached at different absolute cycles merge.
//
// In every state the transient-safe runtime invariants run
// (Hierarchy.CheckRuntime: SWMR, value agreement, directory agreement)
// plus a ghost-value check — a completed load or swap must observe a
// value some CPU actually wrote. In every quiescent state
// Hierarchy.CheckCoherence — CheckRuntime on a drained hierarchy — runs
// too. A state from which the all-silent step changes nothing while
// work is still in flight is a deadlock. Any violation is reported as a replayable counterexample: the choice
// path, re-run with message tracing enabled, prints the full protocol
// event sequence leading to the bad state.
package modelcheck

import (
	"fmt"
	"slices"

	"repro/internal/coherence"
)

// Scope bounds the explored configuration. The defaults (two caches,
// one directory bank, one shared address, two written values, two
// operations per CPU) keep exhaustive enumeration tractable while still
// exercising every protocol race on one block — the small-scope
// hypothesis: protocol bugs that exist at all manifest in tiny
// configurations.
type Scope struct {
	// Proto selects the protocol under check.
	Proto coherence.Protocol
	// CPUs and Banks size the system (2–3 caches, 1–2 banks).
	CPUs, Banks int
	// Addrs is how many words the CPUs operate on (0 = one): the first
	// word of each of as many consecutive blocks, so each extra address
	// adds a real block-level interleaving (and, with two banks, a
	// second bank), not intra-block noise.
	Addrs int
	// Vals is the store-value alphabet (must not contain 0, the
	// initial memory value — ghost checks tell values apart).
	Vals []uint32
	// WithSwap adds an atomic swap per address to the alphabet.
	WithSwap bool
	// OpsPerCPU bounds how many operations each CPU may initiate.
	OpsPerCPU int
	// MaxStates aborts exploration after this many distinct states
	// (0 = unbounded). An aborted run reports Complete=false.
	MaxStates int
	// Fault seeds a protocol mutation into every bank, for verifying
	// that the checkers catch it (see coherence.FaultPlan).
	Fault coherence.FaultPlan
}

const (
	// scopeBase is where the scoped words live (an arbitrary mapped base).
	scopeBase = 0x10000
	// maxDepth guards against runaway paths.
	maxDepth = 10000
	// The network's smallness: crossing delay and queue depths.
	netDelay, srcDepth, fifoDepth = 2, 2, 4
	// wbWords bounds the WTI write buffer.
	wbWords = 2
)

// scopeAddr is scoped word i: the first word of block i from scopeBase.
func scopeAddr(i int) uint32 { return scopeBase + uint32(i*coherence.BlockBytes) }

// DefaultScope returns the standard small scope for a protocol:
// 2 CPUs, 1 bank, 1 shared word, values {1,2}, swap enabled,
// 2 operations per CPU.
func DefaultScope(proto coherence.Protocol) Scope {
	return Scope{Proto: proto, CPUs: 2, Banks: 1, Addrs: 1, Vals: []uint32{1, 2}, WithSwap: true, OpsPerCPU: 2}
}

// normalize fills defaults, validates the scope and returns its
// alphabet (see buildAlphabet).
func (sc *Scope) normalize() (ops []op, values []uint32, err error) {
	if sc.CPUs < 1 || sc.CPUs > 4 {
		return nil, nil, fmt.Errorf("modelcheck: CPUs must be 1..4, got %d", sc.CPUs)
	}
	if sc.Banks < 1 || sc.Banks > 2 {
		return nil, nil, fmt.Errorf("modelcheck: Banks must be 1..2, got %d", sc.Banks)
	}
	sc.Addrs = max(sc.Addrs, 1)
	if len(sc.Vals) == 0 {
		sc.Vals = []uint32{1, 2}
	}
	for _, v := range sc.Vals {
		if v == 0 {
			return nil, nil, fmt.Errorf("modelcheck: value 0 is reserved for initial memory")
		}
		if v == swapValue {
			return nil, nil, fmt.Errorf("modelcheck: value %#x is reserved for swap", swapValue)
		}
	}
	if sc.OpsPerCPU < 1 {
		sc.OpsPerCPU = 2
	}
	ops, values = buildAlphabet(sc)
	if len(values) > 16 {
		return nil, nil, fmt.Errorf("modelcheck: %d distinct word values (stores, swap and the initial 0); a ghost set holds at most 16", len(values))
	}
	if n := numChoices(sc.CPUs, len(ops)); n > 1<<16 {
		return nil, nil, fmt.Errorf("modelcheck: %d CPUs with %d operations each make %d joint choices; a choice holds at most 65536", sc.CPUs, len(ops), n)
	}
	return ops, values, nil
}

// numChoices is the number of joint choices: len(ops)+1 digits per CPU.
func numChoices(cpus, ops int) int {
	n := 1
	for range cpus {
		n *= ops + 1
	}
	return n
}

// swapValue is the distinct word every scoped swap writes, so ghost
// checks can tell a swapped word from a stored one.
const swapValue = 0x5A

type opKind uint8

const (
	opLoad opKind = iota
	opStore
	opSwap
)

// op is one entry of the per-CPU choice alphabet.
type op struct {
	kind opKind
	addr uint32
	val  uint32
	// valID indexes the ghost value table (0 = initial memory).
	valID int
}

func (o op) String() string {
	switch o.kind {
	case opLoad:
		return fmt.Sprintf("load %#x", o.addr)
	case opStore:
		return fmt.Sprintf("store %#x<-%d", o.addr, o.val)
	default:
		return fmt.Sprintf("swap %#x<-%#x", o.addr, o.val)
	}
}

// buildAlphabet enumerates the per-CPU operation alphabet and the ghost
// value table. Choice digit 0 is reserved for "stay silent / keep
// polling"; digit i>0 initiates alphabet[i-1].
func buildAlphabet(sc *Scope) (ops []op, values []uint32) {
	values = []uint32{0} // initial memory value
	valID := func(v uint32) int {
		if i := slices.Index(values, v); i >= 0 {
			return i
		}
		values = append(values, v)
		return len(values) - 1
	}
	for i := range sc.Addrs {
		a := scopeAddr(i)
		ops = append(ops, op{kind: opLoad, addr: a})
		for _, v := range sc.Vals {
			ops = append(ops, op{kind: opStore, addr: a, val: v, valID: valID(v)})
		}
		if sc.WithSwap {
			ops = append(ops, op{kind: opSwap, addr: a, val: swapValue, valID: valID(swapValue)})
		}
	}
	return ops, values
}
