// Package sim provides the cycle-stepped simulation kernel used by every
// hardware model in this repository.
//
// The kernel is deliberately simple: a global cycle counter, a set of
// Tickers advanced once per cycle in registration order, and latched
// message ports. All inter-component communication goes through ports,
// and a message sent at cycle t becomes visible at cycle t+1 at the
// earliest, so the relative tick order of components cannot change
// simulation results. This is the property that makes the whole model
// deterministic and makes the protocol comparison fair.
//
// There is one schedule. Within one cycle the full order is: tickers in
// registration order (Idlers reporting idle are skipped and counted in
// SkippedTicks), then Every hooks, then — from Run — the watchdogs.
package sim

import "fmt"

// Ticker is any component advanced once per simulated cycle.
type Ticker interface {
	// Tick advances the component by one cycle. now is the cycle being
	// executed.
	Tick(now uint64)
}

// TickFunc adapts a function to the Ticker interface.
type TickFunc func(now uint64)

// Tick implements Ticker.
func (f TickFunc) Tick(now uint64) { f(now) }

// Idler is the optional quiescence interface: a Ticker that also
// implements Idler is skipped on every cycle for which Idle reports
// true. Idle must be true only when Tick(now) would change no
// observable state — neither simulation state nor statistics — so a
// skipped tick is indistinguishable from an executed one and
// determinism is preserved. Idle itself must not mutate anything.
type Idler interface {
	Ticker
	Idle(now uint64) bool
}

// Leaper is the event-wheel interface: a single system-level oracle
// that lets Run skip provably-dead cycles wholesale instead of
// executing them one Step at a time. It generalises Idler from "this
// component does nothing this cycle" to "nothing in the whole system
// does anything until cycle w".
//
// NextWake(cur) is called with cur = the next cycle Run would execute.
// It returns:
//
//   - cur (or anything <= cur) to veto leaping — some component may do
//     real work at cur;
//   - NoWake (^uint64(0)) when no future event is scheduled at all —
//     the system is inert until an external deadline;
//   - otherwise the earliest cycle w > cur at which some component must
//     execute. Every cycle in [cur, w) must be dead: executing it would
//     change nothing beyond the fixed per-cycle counter bumps that
//     SkipTo compensates.
//
// SkipTo(cur, target) is then called for each leaped span: it must
// apply exactly the statistic increments (stall counters, backoff
// counters, ...) that executing cycles [cur, target) one by one would
// have applied, and nothing else. Run may split one leap into several
// SkipTo calls at periodic-hook boundaries; the spans are contiguous.
//
// Both methods must be pure apart from SkipTo's counter compensation:
// a run with a Leaper attached is byte-identical to the same run
// without one, just faster.
type Leaper interface {
	NextWake(cur uint64) uint64
	SkipTo(cur, target uint64)
}

// NoWake is the NextWake result meaning "no future event scheduled".
const NoWake = ^uint64(0)

// SetLeaper attaches the event-wheel oracle consulted by Run after
// every executed cycle. Passing nil detaches it. Registering any
// further ticker also detaches it (see Register): the oracle cannot
// vouch for components it does not know about.
func (e *Engine) SetLeaper(l Leaper) { e.leaper = l }

// Leaps reports how many leap spans Run has taken (diagnostics).
func (e *Engine) Leaps() uint64 { return e.leaps }

// LeapedCycles reports how many cycles Run skipped via the Leaper
// (diagnostics; a leaped run still counts these in its cycle total,
// it just never executed them).
func (e *Engine) LeapedCycles() uint64 { return e.leapedCycles }

// idleTicker pairs a tick function with an idleness predicate.
type idleTicker struct {
	tick func(now uint64)
	idle func(now uint64) bool
}

func (t idleTicker) Tick(now uint64)      { t.tick(now) }
func (t idleTicker) Idle(now uint64) bool { return t.idle(now) }

// TickerWithIdle adapts a tick function and an idleness predicate to
// the Idler interface, for tickers built from closures (TickFunc alone
// cannot express quiescence). The Idler contract applies: idle must be
// true only when tick(now) would be a strict no-op.
func TickerWithIdle(tick func(now uint64), idle func(now uint64) bool) Ticker {
	return idleTicker{tick: tick, idle: idle}
}

// Engine drives a set of Tickers cycle by cycle.
type Engine struct {
	now     uint64
	tickers []Ticker
	// idlers[i] is non-nil when tickers[i] implements Idler; the
	// parallel slice keeps Step free of per-cycle type assertions.
	idlers    []Idler
	periodics []periodic
	watchdogs []func(now uint64) error
	skipped   uint64

	// leaper, when non-nil, is the event-wheel oracle Run consults to
	// skip dead cycles; leaps/leapedCycles account for what it skipped.
	leaper       Leaper
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

// Register adds a ticker to the engine. Tickers run every cycle in
// registration order. The name documents the call site only.
//
// Registering a ticker detaches any installed Leaper: the event-wheel
// oracle proves cycles dead for the components it knows, and a ticker
// added behind its back (a trace driver, a test probe) would have its
// work leaped over. Callers that want leaping with extra tickers must
// SetLeaper an oracle that covers them, after registration.
func (e *Engine) Register(name string, t Ticker) {
	e.leaper = nil
	e.tickers = append(e.tickers, t)
	id, _ := t.(Idler)
	e.idlers = append(e.idlers, id)
}

// SkippedTicks reports how many ticks were skipped via Idle
// (diagnostics and tests; skipping is invisible to the simulation
// itself).
func (e *Engine) SkippedTicks() uint64 { return e.skipped }

// Every registers fn to run each time interval further cycles have
// completed (at cycles interval, 2*interval, ...), after every ticker
// of that cycle. It is the observability sampling hook: fn must only
// observe state, never mutate it, so registered hooks cannot change
// simulation results. interval must be positive.
func (e *Engine) Every(interval uint64, fn func(now uint64)) {
	if interval == 0 {
		panic("sim: Every needs a positive interval")
	}
	e.periodics = append(e.periodics, periodic{interval: interval, fn: fn})
}

// Watchdog registers a liveness check polled by Run once per cycle,
// after all tickers of that cycle. A non-nil error aborts the run
// immediately with that error — before the deadline would fire — so a
// stuck transaction surfaces as its own diagnostic instead of the
// anonymous ErrDeadline thousands of cycles later. fn must only
// observe state, never mutate it (the Idler reasoning: registering a
// watchdog cannot change simulation results). Runs with no registered
// watchdog pay nothing.
func (e *Engine) Watchdog(fn func(now uint64) error) {
	e.watchdogs = append(e.watchdogs, fn)
}

// Step advances the simulation by exactly one cycle: every registered
// ticker in registration order, skipping Idlers that report idle, then
// the Every hooks.
//
// Step is the per-cycle engine loop, the hot-path root everything else
// hangs off: allocations anywhere it reaches are gated by simlint's
// hotalloc analyzer against the committed hotalloc.allow worklist.
//
//lint:hot
func (e *Engine) Step() {
	now := e.now
	for i, t := range e.tickers {
		if id := e.idlers[i]; id != nil && id.Idle(now) {
			e.skipped++
			continue
		}
		t.Tick(now)
	}
	e.now++
	if len(e.periodics) != 0 {
		for i := range e.periodics {
			p := &e.periodics[i]
			if e.now%p.interval == 0 {
				p.fn(e.now)
			}
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
// predicate once per cycle after all tickers have run. It returns the
// number of cycles elapsed (executed plus leaped). If maxCycles is
// non-zero and elapses first, Run stops and returns ErrDeadline.
//
// When a Leaper is attached (SetLeaper), Run consults it after the
// done and deadline checks, before executing the next cycle, and may
// advance e.now over a span of dead cycles without executing them.
// Leaping before the checks rather than after Step means a predicate
// that becomes true (or a deadline that expires) is observed at the
// exact cycle stepped execution would have observed it — the leap can
// never overshoot the end of the run. Leaps are clamped to the
// deadline, and broken at every Every-hook boundary so each periodic
// hook still fires at cycles interval, 2*interval, ... with the
// counter compensation for the span already applied. Watchdogs are
// not polled inside a leaped span: a leapable window is frozen by
// definition, so a watchdog that would fire during it already fired
// at the poll after the last executed cycle.
func (e *Engine) Run(maxCycles uint64, done func() bool) (uint64, error) {
	start := e.now
	for {
		if done() {
			return e.now - start, nil
		}
		if maxCycles != 0 && e.now-start >= maxCycles {
			return e.now - start, &ErrDeadline{Cycles: maxCycles}
		}
		if e.leaper != nil && e.leap(start, maxCycles) {
			// The leap advanced e.now; re-run the done and deadline
			// checks at the leaped-to cycle before executing it.
			continue
		}
		e.Step()
		for _, w := range e.watchdogs {
			if err := w(e.now); err != nil {
				return e.now - start, err
			}
		}
	}
}

// leap consults the Leaper once and, if a dead span lies ahead,
// advances e.now across it boundary by boundary: each segment ends at
// the nearest periodic-hook multiple (or the target), SkipTo applies
// the segment's counter compensation, and the hooks due at the segment
// end fire — exactly the observation sequence stepped execution would
// have produced. It reports whether it advanced e.now.
func (e *Engine) leap(start, maxCycles uint64) bool {
	cur := e.now
	wake := e.leaper.NextWake(cur)
	if wake <= cur {
		return false
	}
	target := wake
	if maxCycles != 0 {
		if deadline := start + maxCycles; target > deadline {
			// Clamp to the deadline: cycles past it would never have
			// been executed, so they must not be leaped either.
			target = deadline
		}
	} else if wake == NoWake {
		// No future event and no deadline to clamp to: leaping would
		// jump nowhere meaningful. Fall back to stepped execution
		// (done() may still end the run).
		return false
	}
	if target <= cur {
		return false
	}
	e.leaps++
	for e.now < target {
		next := target
		for i := range e.periodics {
			p := &e.periodics[i]
			if b := (e.now/p.interval + 1) * p.interval; b < next {
				next = b
			}
		}
		e.leaper.SkipTo(e.now, next)
		e.leapedCycles += next - e.now
		e.now = next
		for i := range e.periodics {
			p := &e.periodics[i]
			if e.now%p.interval == 0 {
				p.fn(e.now)
			}
		}
	}
	return true
}
