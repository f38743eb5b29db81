// Package sim provides the cycle-stepped simulation kernel used by every
// hardware model in this repository.
//
// The kernel is deliberately simple: a global cycle counter, a set of
// Tickers advanced once per cycle in registration order, and latched
// message ports. All communication between nodes goes through ports:
// a coherence.Node's outbound FIFO, every queue inside the three noc
// models (injection, router link, delay and arrival queues) and the
// fault layer's staging queues are each a Port[T] — there is no other
// queue between a controller and a sink. (A CPU and its own caches are
// one cluster and talk by direct call, the blocking cache interface.)
// A port's head is receivable only from its not-before cycle, and every
// arrival port is filled with a cycle later than the one it is filled
// in, so a message sent at cycle t becomes visible at cycle t+1 at the
// earliest and the relative tick order of components cannot change
// simulation results. This is the property that makes the whole model
// deterministic and makes the protocol comparison fair.
//
// # One wake contract
//
// There is one schedule and one way to stay off it. Every Tick answers
// "when must I next run"; the engine files the answer and passes the
// ticker over until that cycle comes — or until the cycle whoever hands
// it input pushes through its Waker, when it is ticked — and when every
// ticker's cycle lies ahead it moves the clock straight to the earliest
// one. A Sleeper is asked NextWake only as a Step or Run opens. A ticker
// that is not a Sleeper is always awake: it runs every cycle and no
// cycle it is registered for is ever leaped.
// Within one cycle the full order is: tickers in registration order,
// then Every hooks; Run consults done before the next cycle.
//
// A ticker may also act early: execute, inside the Tick of cycle t, the
// cycles after t on which it only touches state no other ticker can
// observe before their cycle (a core hitting in its own caches, with no
// message able to reach it sooner). What watches from outside the
// tickers — Every hooks, the deadline, the cycle Run or Step stops at —
// bounds that through Engine.Horizon.
package sim

import (
	"fmt"
	"math/bits"
	"slices"
)

// Ticker is any component advanced once per simulated cycle.
type Ticker interface {
	// Tick advances the component by one cycle, now, and answers the cycle
	// it must next run: a Sleeper's NextWake(now+1), anyone else's now+1.
	Tick(now uint64) uint64
}

// TickFunc adapts a function to the Ticker interface.
type TickFunc func(now uint64)

// Tick implements Ticker.
func (f TickFunc) Tick(now uint64) uint64 { f(now); return now + 1 }

// Sleeper is the optional wake contract of a Ticker.
//
// NextWake(now) is asked as a Step or Run opens at cycle now, before the
// cycle's first tick; from then on each Tick answers. A result > now
// promises that Tick would change nothing from now until then except the
// fixed per-cycle counter bumps Skip accounts for — absent input from
// another ticker. The engine ticks the ticker when that cycle comes:
// whoever hands a sleeping ticker input owes its Waker the cycle it takes
// effect, and the ticker is ticked then, its answer replacing what was
// pushed. A result <= now means "run me"; NoWake means no event of the
// ticker's own is scheduled at all. It must be pure, and erring early is
// always safe: the engine just ticks more.
//
// Skip(from, to) charges exactly the statistic increments that
// executing Tick on cycles [from, to) would have applied, and nothing
// else. The engine owes it for every cycle it did not Tick and pays
// lazily: before the ticker's next Tick, before any Every hook fires,
// and before Step or Run return — in contiguous spans, split at hook
// boundaries. It must therefore depend only on state the ticker's own
// Tick changes, which is frozen while the ticker sleeps.
//
// A ticker that acted early (see the package comment) answers NextWake
// below the first cycle it has not executed as at that cycle, charges
// nothing in Skip below it, and never runs past Engine.Horizon.
//
// A run scheduled through Sleepers is byte-identical to the naive run
// that ticks everything every cycle, just faster.
type Sleeper interface {
	NextWake(now uint64) uint64
	Skip(from, to uint64)
}

// NoWake is the NextWake result meaning "no future event scheduled".
const NoWake = ^uint64(0)

// slot is one registered ticker with its scheduling account.
type slot struct {
	name  string
	tick  Ticker
	sleep Sleeper // nil: always awake
	// settled is the first cycle neither ticked nor charged to Skip yet.
	settled        uint64
	ticks, skipped uint64
}

// Engine drives a set of Tickers cycle by cycle.
type Engine struct {
	now   uint64
	slots []slot
	// wake[i] is the cycle slot i next runs at: its last answer, or an
	// earlier one a Waker pushed — the one source of truth the calendar
	// below only indexes.
	wake []uint64
	// due and wheel index wake (sized by Register): due holds the slots to
	// look at this cycle, wheel the slots filed for the cycles ahead. Every
	// wake given files its slot and the clock never leaps past a wake, so
	// each executed cycle's bucket holds every slot due then.
	due   Bitset
	wheel Wheel
	// limit is the cycle the advance in progress may not reach past.
	limit     uint64
	periodics []periodic

	// leaps counts the spans in which no ticker ran, leapedCycles their
	// summed length.
	leaps        uint64
	leapedCycles uint64
}

// periodic is a sampling hook run every interval cycles, after all
// tickers of that cycle.
type periodic struct {
	interval uint64
	fn       func(now uint64)
}

// NewEngine returns an empty engine at cycle zero.
func NewEngine() *Engine { return &Engine{} }

// Now reports the current cycle.
func (e *Engine) Now() uint64 { return e.now }

// Register adds a ticker to the engine and returns the handle that
// wakes it. Tickers run in registration order, every cycle unless they
// implement Sleeper. Tickers sharing a name share one row of TickCounts.
func (e *Engine) Register(name string, t Ticker) Waker {
	s, _ := t.(Sleeper)
	e.slots = append(e.slots, slot{name: name, tick: t, sleep: s, settled: e.now})
	e.wake = append(e.wake, 0)
	if n := (len(e.wake) + 63) / 64; n > len(e.due) { // Step and Run mark all due
		e.due, e.wheel = make(Bitset, n), NewWheel(len(e.wake))
	}
	return Waker{e, len(e.wake) - 1}
}

// Waker is the push half of the wake contract for one registered
// ticker; the zero value wakes nobody.
type Waker struct {
	e *Engine
	i int
}

// Wake says input handed to the ticker takes effect at cycle at: tick it
// then. It only ever lowers the remembered cycle, so it is safe from any
// slot at any point of a cycle; too early costs one tick. A cycle already
// come is filed twice: in due for a slot whose turn is still to come, and
// for the next cycle for one whose turn has passed.
func (w Waker) Wake(at uint64) {
	e := w.e
	if e == nil || at >= e.wake[w.i] {
		return
	}
	e.wake[w.i] = at
	if at <= e.now {
		e.due.Set(w.i)
		at = e.now + 1
	}
	e.wheel.File(w.i, at)
}

// forget replaces every remembered wake by a fresh answer, asked of each
// Sleeper in registration order before the cycle's first tick (code
// between Step and Run calls may touch anything: Table 1's probes drive
// the caches between Steps). A plain ticker is due now; advance files
// an answer that lies ahead.
func (e *Engine) forget() {
	for i := range e.slots {
		e.wake[i] = e.now
		if s := e.slots[i].sleep; s != nil {
			e.wake[i] = s.NextWake(e.now)
		}
		e.due.Set(i)
	}
}

// Wheel is a 64-bucket calendar over a Bitset's members: bucket t%64
// (word k at [k<<6|t%64]) holds those filed for cycle t or a multiple of
// 64 cycles later. A member may sit in several buckets; its owner keeps
// the one true cycle and re-files what it drains early.
type Wheel []uint64

func NewWheel(n int) Wheel { return make(Wheel, 64*((n+63)/64)) }

// File puts member i in the bucket of cycle at; NoWake is never due.
func (w Wheel) File(i int, at uint64) {
	if at != NoWake {
		w[i>>6<<6|int(at&63)] |= 1 << (i & 63)
	}
}

// Drain moves the bucket of cycle t into due and empties it.
func (w Wheel) Drain(t uint64, due Bitset) {
	for k := range due {
		due[k] |= w[k<<6|int(t&63)]
		w[k<<6|int(t&63)] = 0
	}
}

// Bitset is a set of small integers, walked in ascending order by
// for i := b.Next(0); i >= 0; i = b.Next(i + 1) on the live words, so
// members may be set or cleared as the walk goes.
type Bitset []uint64

func NewBitset(n int) Bitset { return make(Bitset, (n+63)/64) }
func (b Bitset) Set(i int)   { b[i>>6] |= 1 << (i & 63) }
func (b Bitset) Clear(i int) { b[i>>6] &^= 1 << (i & 63) }

// Next returns the smallest member at or after i, or -1.
func (b Bitset) Next(i int) int {
	for w := i >> 6; w < len(b); w, i = w+1, (w+1)<<6 {
		if word := b[w] >> (i & 63); word != 0 {
			return i + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// TickCount is one Register name's share of the schedule: ticks
// executed and ticks skipped (charged to Skip instead), summed over the
// tickers registered under that name.
type TickCount struct {
	Name              string
	Executed, Skipped uint64
}

// TickCounts reports executed and skipped ticks per Register name, in
// first-registration order (host-side diagnostics, like Leaps).
func (e *Engine) TickCounts() []TickCount {
	var out []TickCount
next:
	for i := range e.slots {
		s := &e.slots[i]
		for j := range out {
			if out[j].Name == s.name {
				out[j].Executed += s.ticks
				out[j].Skipped += s.skipped
				continue next
			}
		}
		out = append(out, TickCount{s.name, s.ticks, s.skipped})
	}
	return out
}

// SkippedTicks reports how many ticks were not executed because their
// ticker slept, leaped cycles included (diagnostics and tests; skipping
// is invisible to the simulation itself).
func (e *Engine) SkippedTicks() uint64 {
	var n uint64
	for i := range e.slots {
		n += e.slots[i].skipped
	}
	return n
}

// Leaps reports how many spans of cycles passed with every ticker
// asleep (diagnostics).
func (e *Engine) Leaps() uint64 { return e.leaps }

// LeapedCycles reports how many cycles those spans covered
// (diagnostics; a leaped cycle still counts in the cycle total, nothing
// executed in it).
func (e *Engine) LeapedCycles() uint64 { return e.leapedCycles }

// NextWake folds the registered tickers' answers into the engine's own:
// now if any ticker must run at now, else the earliest wake, else
// NoWake. Pure, and it asks everyone, as forget does when a Step or Run
// opens; the scheduling loop itself never asks.
func (e *Engine) NextWake(now uint64) uint64 {
	wake := NoWake
	for i := range e.slots {
		s := e.slots[i].sleep
		if s == nil {
			return now
		}
		if w := s.NextWake(now); w <= now {
			return now
		} else if w < wake {
			wake = w
		}
	}
	return wake
}

// Horizon is the bound observers impose on a ticker acting early inside
// its Tick: the first cycle it may not execute yet — the limit of the Run
// or Step in progress or the next Every boundary, whichever comes first
// — so no hook, deadline or returning Step sees it ahead of the clock.
// (done may: see Run.) Only meaningful in a Tick.
func (e *Engine) Horizon() uint64 {
	h := e.limit
	for i := range e.periodics {
		p := &e.periodics[i]
		h = min(h, (e.now/p.interval+1)*p.interval)
	}
	return h
}

// Every registers fn to run each time interval further cycles have
// completed (at cycles interval, 2*interval, ...), after every ticker
// of that cycle. It is the observability sampling hook: fn must only
// observe state, never mutate it, so registered hooks cannot change
// simulation results. Every counter a sleeping ticker owes is charged
// before fn runs. interval must be positive.
func (e *Engine) Every(interval uint64, fn func(now uint64)) {
	if interval == 0 {
		panic("sim: Every needs a positive interval")
	}
	e.periodics = append(e.periodics, periodic{interval: interval, fn: fn})
}

// Step advances the simulation by exactly one cycle: every registered
// ticker in registration order except the Sleepers whose wake lies
// ahead, then the Every hooks.
func (e *Engine) Step() {
	e.forget()
	e.advance(e.now + 1)
	e.settle()
}

// advance is the one scheduling loop. It drains the bucket of cycle
// e.now into due and walks due in registration order: a slot whose wake
// has come is ticked at its turn and filed at its answer; one whose wake
// lies ahead is filed again. If none ran, the cycle was dead for everyone
// and the clock moves to the earliest wake instead of e.now+1 — never
// past limit, one cycle at a time when neither bounds the span. (A Wake can only come
// from a ticker that ran, so no cycle with one is ever leaped from.)
//
// This is the hot-path root everything else hangs off: allocations
// anywhere it reaches are gated by simlint's hotalloc analyzer against
// the committed hotalloc.allow worklist.
//
//lint:hot
func (e *Engine) advance(limit uint64) {
	now := e.now
	e.limit = limit
	e.wheel.Drain(now, e.due)
	ran := false
	for k := range e.due { // re-read after each slot: a Wake(now) ahead counts
		for b, word := 0, e.due[k]; word != 0; word = e.due[k] &^ (2<<b - 1) {
			b = bits.TrailingZeros64(word)
			i := k<<6 | b
			if w := e.wake[i]; w > now {
				e.wheel.File(i, w)
				continue
			}
			s := &e.slots[i]
			if s.sleep != nil && s.settled < now {
				s.settle(now)
			}
			w := max(s.tick.Tick(now), now+1)
			s.ticks++
			s.settled = now + 1
			e.wake[i] = w
			e.wheel.File(i, w)
			ran = true
		}
		e.due[k] = 0
	}
	target := now + 1
	if !ran {
		wake := limit
		for _, w := range e.wake {
			wake = min(wake, w)
		}
		if wake <= now { // a slot due and passed over: only a calendar bug does that
			i := slices.Index(e.wake, wake)
			panic(fmt.Sprintf("sim: cycle %d: slot %d (%s) due at %d was passed over", now, i, e.slots[i].name, wake))
		}
		if wake != NoWake {
			target = wake
		}
		e.leaps++
		e.leapedCycles += target - now
	}
	if len(e.periodics) == 0 {
		e.now = target
		return
	}
	// Move the clock boundary by boundary so every hook fires at each
	// multiple of its interval the span crosses, with the counters owed
	// up to that boundary charged first — the observation sequence of
	// the naive schedule.
	for e.now < target {
		next := target
		for i := range e.periodics {
			p := &e.periodics[i]
			if b := (e.now/p.interval + 1) * p.interval; b < next {
				next = b
			}
		}
		e.now = next
		settled := false
		for i := range e.periodics {
			p := &e.periodics[i]
			if next%p.interval == 0 {
				if !settled {
					e.settle()
					settled = true
				}
				p.fn(next)
			}
		}
	}
}

// settle charges the ticker's Skip for the cycles [settled, upTo) it
// slept through.
func (s *slot) settle(upTo uint64) {
	s.sleep.Skip(s.settled, upTo)
	s.skipped += upTo - s.settled
	s.settled = upTo
}

// settle brings every sleeping ticker's account up to e.now.
func (e *Engine) settle() {
	for i := range e.slots {
		if s := &e.slots[i]; s.sleep != nil && s.settled < e.now {
			s.settle(e.now)
		}
	}
}

// ErrDeadline is returned by Run when maxCycles elapse before done()
// reports true.
type ErrDeadline struct {
	Cycles uint64
}

func (e *ErrDeadline) Error() string {
	return fmt.Sprintf("sim: deadline of %d cycles reached before completion", e.Cycles)
}

// Run advances the simulation until done() reports true, checking the
// predicate before each cycle: done at cycle t has seen the tickers of
// t-1 and the Every hooks at t. It returns the number of cycles elapsed
// (executed plus leaped). If maxCycles is non-zero and elapses first,
// Run stops and returns ErrDeadline. Those are the only two ways a run
// ends.
//
// A leap never overshoots the end of the run: done and the deadline
// are checked at the leaped-to cycle before it executes, and leaps are
// clamped to the deadline. done must not read Skip-charged counters —
// exact again when Run returns — nor what a ticker may do early: when
// done ends the run, a ticker can be ahead of the clock; the NextWake
// the next Run opens with says so.
func (e *Engine) Run(maxCycles uint64, done func() bool) (uint64, error) {
	start := e.now
	limit := NoWake
	if maxCycles != 0 {
		limit = start + maxCycles
	}
	e.forget()
	defer e.settle()
	for {
		if done() {
			return e.now - start, nil
		}
		if e.now >= limit {
			return e.now - start, &ErrDeadline{Cycles: maxCycles}
		}
		e.advance(limit)
	}
}
