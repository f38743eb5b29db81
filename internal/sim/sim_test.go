package sim

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestEngineTickOrderAndCount(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Register("a", TickFunc(func(now uint64) { order = append(order, "a") }))
	e.Register("b", TickFunc(func(now uint64) { order = append(order, "b") }))
	e.Step()
	e.Step()
	want := []string{"a", "b", "a", "b"}
	if len(order) != len(want) {
		t.Fatalf("got %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("tick order %v, want %v", order, want)
		}
	}
	if e.Now() != 2 {
		t.Fatalf("Now() = %d, want 2", e.Now())
	}
}

func TestEngineRunUntilDone(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Register("c", TickFunc(func(now uint64) { count++ }))
	cycles, err := e.Run(0, func() bool { return count >= 10 })
	if err != nil {
		t.Fatal(err)
	}
	if cycles != 10 || count != 10 {
		t.Fatalf("cycles=%d count=%d", cycles, count)
	}
}

func TestEngineDeadline(t *testing.T) {
	e := NewEngine()
	ticks := 0
	e.Register("t", TickFunc(func(now uint64) { ticks++ }))
	cycles, err := e.Run(5, func() bool { return false })
	var dl *ErrDeadline
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if dl.Cycles != 5 {
		t.Fatalf("deadline cycles = %d", dl.Cycles)
	}
	if cycles != 5 || ticks != 5 {
		t.Fatalf("cycles=%d ticks=%d, want 5 each", cycles, ticks)
	}
	if dl.Error() == "" {
		t.Fatal("empty deadline message")
	}
	// The deadline leaves the engine usable: a later Run resumes from
	// the current cycle with a fresh budget.
	done := false
	e.Register("d", TickFunc(func(now uint64) { done = now >= 7 }))
	cycles, err = e.Run(5, func() bool { return done })
	// Resumes at cycle 5; the ticker first sees now=7 on the third step.
	if err != nil || cycles != 3 {
		t.Fatalf("resumed Run = %d, %v", cycles, err)
	}
}

func TestEngineDeadlineNotHitWhenDoneFirst(t *testing.T) {
	// done is checked before the budget, so finishing exactly at
	// maxCycles is success, not ErrDeadline.
	e := NewEngine()
	count := 0
	e.Register("c", TickFunc(func(now uint64) { count++ }))
	cycles, err := e.Run(3, func() bool { return count >= 3 })
	if err != nil || cycles != 3 {
		t.Fatalf("Run = %d, %v; want 3, nil", cycles, err)
	}
}

// TestEngineDoneSeesTickersAndHooks pins the Run-loop order within one
// cycle: done consulted at now == t has already seen the tickers of
// cycle t-1 and the Every hooks at t, so a hook's latch ends the run at
// the cycle it fired.
func TestEngineDoneSeesTickersAndHooks(t *testing.T) {
	e := NewEngine()
	var lastTick, lastHook uint64
	e.Register("t", TickFunc(func(now uint64) { lastTick = now }))
	e.Every(1, func(now uint64) { lastHook = now })
	var consulted []uint64
	cycles, err := e.Run(10, func() bool {
		now := e.Now()
		if now > 0 && (lastTick != now-1 || lastHook != now) {
			t.Fatalf("done at now=%d saw tick of cycle %d, hook at %d; both must precede it",
				now, lastTick, lastHook)
		}
		consulted = append(consulted, now)
		return lastHook == 3
	})
	if err != nil || cycles != 3 {
		t.Fatalf("Run = %d, %v; want done at the hook of cycle 3", cycles, err)
	}
	if !equalU64(consulted, []uint64{0, 1, 2, 3}) {
		t.Fatalf("done consulted at %v, want [0 1 2 3]", consulted)
	}
}

func TestEngineEveryRunsAfterTickersOfItsCycle(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Register("t", TickFunc(func(now uint64) {
		order = append(order, "tick")
	}))
	e.Every(2, func(now uint64) {
		// The hook sees the cycle count *after* the tickers of the
		// completed cycle: it fires at cycles 2, 4, ...
		if now%2 != 0 {
			t.Errorf("hook at now=%d, want multiple of 2", now)
		}
		order = append(order, "every")
	})
	for i := 0; i < 4; i++ {
		e.Step()
	}
	want := []string{"tick", "tick", "every", "tick", "tick", "every"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// sleeper is a scripted Ticker+Sleeper: wake answers NextWake per
// question, and every executed tick, every Skip span and every NextWake
// question is recorded so tests can pin exactly what the engine ran,
// charged and asked.
type sleeper struct {
	wake  func(now uint64) uint64
	ticks []uint64
	spans [][2]uint64
	asked int
}

func (s *sleeper) Tick(now uint64) uint64     { s.ticks = append(s.ticks, now); return s.wake(now + 1) }
func (s *sleeper) NextWake(now uint64) uint64 { s.asked++; return s.wake(now) }
func (s *sleeper) Skip(from, to uint64)       { s.spans = append(s.spans, [2]uint64{from, to}) }
func awakeExceptAt(at, until uint64) *sleeper {
	return &sleeper{wake: func(now uint64) uint64 {
		if now == at {
			return until
		}
		return now
	}}
}

func equalSpans(got, want [][2]uint64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func TestEngineIdleSkip(t *testing.T) {
	// Per-ticker skip: a sleeping ticker is passed over while the others
	// and the cycle count advance as always, and its Skip is charged for
	// exactly the cycles it did not run.
	e := NewEngine()
	idle := false
	s := &sleeper{wake: func(now uint64) uint64 {
		if idle {
			return NoWake
		}
		return now
	}}
	plainTicks := 0
	w := e.Register("skippable", s)
	e.Register("plain", TickFunc(func(now uint64) { plainTicks++ }))

	e.Step()
	e.Step()
	if len(s.ticks) != 2 || e.SkippedTicks() != 0 {
		t.Fatalf("busy phase: ticks=%v skipped=%d", s.ticks, e.SkippedTicks())
	}
	idle = true
	e.Step()
	e.Step()
	if len(s.ticks) != 2 {
		t.Fatalf("sleeping ticker still ran: ticks=%v", s.ticks)
	}
	if e.SkippedTicks() != 2 || !equalSpans(s.spans, [][2]uint64{{2, 3}, {3, 4}}) {
		t.Fatalf("skipped = %d, Skip spans %v; want 2 ticks charged as [2,3) [3,4)", e.SkippedTicks(), s.spans)
	}
	if plainTicks != 4 || e.Now() != 4 || e.Leaps() != 0 {
		t.Fatalf("plainTicks=%d now=%d leaps=%d", plainTicks, e.Now(), e.Leaps())
	}
	// Whoever changes what a sleeping ticker would answer owes it a Wake
	// (a courtesy between Steps, which forget what they remembered).
	idle = false
	w.Wake(e.Now())
	e.Step()
	if !equalU64(s.ticks, []uint64{0, 1, 4}) {
		t.Fatalf("ticker did not resume: ticks=%v", s.ticks)
	}
	want := []TickCount{{"skippable", 3, 2}, {"plain", 5, 0}}
	if got := e.TickCounts(); len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("TickCounts = %+v, want %+v", got, want)
	}
}

func TestLeapFiresEveryCrossedHookBoundary(t *testing.T) {
	// A leap over [1,14) must fire the Every(3) hook at 3, 6, 9, 12 and
	// the Every(5) hook at 5, 10 — every interval multiple the span
	// crosses — exactly as stepped execution would have.
	e := NewEngine()
	s := awakeExceptAt(1, 14)
	e.Register("t", s)
	var fired3, fired5 []uint64
	charged := 0 // Skip spans seen by the most recent hook
	e.Every(3, func(now uint64) { fired3 = append(fired3, now); charged = len(s.spans) })
	e.Every(5, func(now uint64) { fired5 = append(fired5, now); charged = len(s.spans) })
	cycles, err := e.Run(20, func() bool { return false })
	var dl *ErrDeadline
	if !errors.As(err, &dl) || cycles != 20 {
		t.Fatalf("Run = %d, %v; want the 20-cycle deadline", cycles, err)
	}
	want3 := []uint64{3, 6, 9, 12, 15, 18}
	want5 := []uint64{5, 10, 15, 20}
	if !equalU64(fired3, want3) || !equalU64(fired5, want5) {
		t.Fatalf("hooks fired at %v / %v; want %v / %v", fired3, fired5, want3, want5)
	}
	// Cycles 1..13 were leaped, so only cycles 0 and 14..19 executed.
	if !equalU64(s.ticks, []uint64{0, 14, 15, 16, 17, 18, 19}) {
		t.Fatalf("executed cycles %v; want 0 and 14..19", s.ticks)
	}
	if e.Leaps() != 1 || e.LeapedCycles() != 13 {
		t.Fatalf("leaps=%d leaped=%d; want 1 leap of 13 cycles", e.Leaps(), e.LeapedCycles())
	}
	// The span was charged contiguously, segmented at every hook
	// boundary (each hook saw the counters owed up to it), the tail
	// before the ticker's next Tick.
	wantSpans := [][2]uint64{{1, 3}, {3, 5}, {5, 6}, {6, 9}, {9, 10}, {10, 12}, {12, 14}}
	if !equalSpans(s.spans, wantSpans) || charged != len(wantSpans) {
		t.Fatalf("Skip spans = %v (last hook saw %d); want %v", s.spans, charged, wantSpans)
	}
}

func TestLeapClampedToDeadline(t *testing.T) {
	// NoWake with a deadline: the engine leaps straight to the deadline
	// — never past it — and reports ErrDeadline at the exact cycle
	// count a stepped run would have, with the whole span charged
	// before Run returns.
	e := NewEngine()
	s := &sleeper{wake: func(uint64) uint64 { return NoWake }}
	e.Register("t", s)
	cycles, err := e.Run(100, func() bool { return false })
	var dl *ErrDeadline
	if !errors.As(err, &dl) || dl.Cycles != 100 {
		t.Fatalf("Run err = %v; want the 100-cycle deadline", err)
	}
	if cycles != 100 || len(s.ticks) != 0 {
		t.Fatalf("cycles=%d ticks=%v; want all 100 cycles leaped", cycles, s.ticks)
	}
	if e.Leaps() != 1 || e.LeapedCycles() != 100 || !equalSpans(s.spans, [][2]uint64{{0, 100}}) {
		t.Fatalf("leaps=%d leaped=%d spans=%v", e.Leaps(), e.LeapedCycles(), s.spans)
	}
}

func TestLeapNoWakeWithoutDeadlineFallsBackToStepping(t *testing.T) {
	// With maxCycles 0 there is no deadline to clamp a NoWake span to:
	// the clock must advance one cycle at a time so done() can end the
	// run.
	e := NewEngine()
	s := &sleeper{wake: func(uint64) uint64 { return NoWake }}
	e.Register("c", s)
	polls := 0
	cycles, err := e.Run(0, func() bool { polls++; return e.Now() >= 5 })
	if err != nil || cycles != 5 || polls != 6 {
		t.Fatalf("Run = %d, %v after %d polls; want 5 cycles, done polled at each", cycles, err, polls)
	}
	if len(s.ticks) != 0 || e.LeapedCycles() != 5 {
		t.Fatalf("ticks=%v leaped=%d; want nothing executed over 5 cycles", s.ticks, e.LeapedCycles())
	}
}

// TestTickerWithoutNextWakeIsNeverSkipped pins the default: a ticker
// that does not implement Sleeper (the trace harness's CPUs used to
// register this way, behind an oracle that could not vouch for them) is
// always awake — it runs every cycle and vetoes every leap — while a
// Sleeper beside it is still skipped on its own.
func TestTickerWithoutNextWakeIsNeverSkipped(t *testing.T) {
	e := NewEngine()
	s := &sleeper{wake: func(uint64) uint64 { return NoWake }}
	e.Register("asleep", s)
	ticks := 0
	e.Register("plain", TickFunc(func(uint64) { ticks++ }))
	if cycles, _ := e.Run(20, func() bool { return false }); cycles != 20 {
		t.Fatalf("Run = %d cycles, want the 20-cycle deadline", cycles)
	}
	if ticks != 20 || e.Leaps() != 0 || e.NextWake(e.Now()) != e.Now() {
		t.Fatalf("plain ticker ran %d of 20 cycles with %d leaps; it must never be leaped over",
			ticks, e.Leaps())
	}
	if len(s.ticks) != 0 || e.SkippedTicks() != 20 {
		t.Fatalf("sleeper ran %v, skipped %d; want 20 skipped ticks", s.ticks, e.SkippedTicks())
	}
}

func TestLeapVetoedKeepsStepping(t *testing.T) {
	// NextWake <= now means "run me": every cycle executes normally.
	e := NewEngine()
	s := &sleeper{wake: func(now uint64) uint64 { return now }}
	e.Register("t", s)
	if _, err := e.Run(6, func() bool { return false }); err == nil {
		t.Fatal("want ErrDeadline")
	}
	if len(s.ticks) != 6 || e.Leaps() != 0 || e.LeapedCycles() != 0 || len(s.spans) != 0 {
		t.Fatalf("ticks=%v leaps=%d leaped=%d spans=%v; want 6 stepped, nothing skipped",
			s.ticks, e.Leaps(), e.LeapedCycles(), s.spans)
	}
	// Asked once, at the Run's opening: from then on each Tick answers.
	if s.asked != 1 {
		t.Fatalf("NextWake asked %d times; want 1", s.asked)
	}
}

func TestLeapDoneObservedAtLeapedToCycle(t *testing.T) {
	// done() and the deadline are re-checked at the leaped-to cycle
	// before it executes: a predicate that is true there ends the run
	// without an extra Step, at the same cycle count as stepped
	// execution.
	e := NewEngine()
	s := awakeExceptAt(1, 9)
	e.Register("t", s)
	cycles, err := e.Run(50, func() bool { return e.Now() >= 9 })
	if err != nil || cycles != 9 {
		t.Fatalf("Run = %d, %v; want done at cycle 9", cycles, err)
	}
	if !equalU64(s.ticks, []uint64{0}) || !equalSpans(s.spans, [][2]uint64{{1, 9}}) {
		t.Fatalf("ticks=%v spans=%v; want only cycle 0 executed, [1,9) charged", s.ticks, s.spans)
	}
}

// napper is a randomised sleeping component: it works on the cycle it
// wakes, then naps for a random span during which Tick only bumps the
// idle counter — the shape of a stalled CPU or a backing-off port. A
// working napper may also poke a neighbour awake one cycle later (a
// latched message), and owes that neighbour's Waker the cycle (the zero
// Waker in the naive run).
type napper struct {
	rng    *rand.Rand
	peers  []*napper
	waker  Waker
	wakeAt uint64
	idle   uint64
	log    []uint64 // cycles worked
}

func (n *napper) Tick(now uint64) uint64 {
	if now < n.wakeAt {
		n.idle++
		return n.wakeAt
	}
	n.log = append(n.log, now)
	n.wakeAt = now + 1 + uint64(n.rng.Intn(4)*n.rng.Intn(12))
	if p := n.peers[n.rng.Intn(len(n.peers))]; n.rng.Intn(3) == 0 && p.wakeAt > now+1 {
		p.wakeAt = now + 1
		p.waker.Wake(now + 1)
	}
	return n.wakeAt
}

func (n *napper) NextWake(now uint64) uint64 { return max(n.wakeAt, now) }
func (n *napper) Skip(from, to uint64)       { n.idle += to - from }

func TestLeapEquivalentToSteppedRun(t *testing.T) {
	// The wake contract as a property: for random tickers with random
	// sleep spans, the scheduled run and the naive run (the same
	// components registered without their Sleeper half) have identical
	// tick logs for the awake cycles, identical counters, identical
	// Every-hook observation sequences and identical cycle counts.
	type outcome struct {
		cycles uint64
		snaps  [][3]uint64 // hook id, cycle, summed idle counters
		comps  []*napper
	}
	run := func(seed int64, scheduled bool) (outcome, *Engine) {
		rng := rand.New(rand.NewSource(seed))
		var o outcome
		e := NewEngine()
		for i, n := 0, 1+rng.Intn(5); i < n; i++ {
			o.comps = append(o.comps, &napper{rng: rand.New(rand.NewSource(rng.Int63()))})
		}
		for _, c := range o.comps {
			c.peers = o.comps
			if scheduled {
				c.waker = e.Register("n", c)
			} else {
				e.Register("n", TickFunc(func(now uint64) { c.Tick(now) }))
			}
		}
		for id, k := range []uint64{1 + uint64(rng.Intn(7)), 10} {
			id := uint64(id)
			e.Every(k, func(now uint64) {
				var idle uint64
				for _, c := range o.comps {
					idle += c.idle
				}
				o.snaps = append(o.snaps, [3]uint64{id, now, idle})
			})
		}
		work := 100 + rng.Intn(200)
		cycles, err := e.Run(0, func() bool {
			done := 0
			for _, c := range o.comps {
				done += len(c.log)
			}
			return done >= work
		})
		if err != nil {
			t.Fatal(err)
		}
		o.cycles = cycles
		return o, e
	}
	var skipped, leaped uint64
	for seed := int64(1); seed <= 200; seed++ {
		naive, ne := run(seed, false)
		sched, se := run(seed, true)
		if ne.SkippedTicks() != 0 || ne.Leaps() != 0 {
			t.Fatalf("seed %d: the naive run skipped %d ticks, leaped %d times", seed, ne.SkippedTicks(), ne.Leaps())
		}
		skipped += se.SkippedTicks()
		leaped += se.LeapedCycles()
		if naive.cycles != sched.cycles {
			t.Fatalf("seed %d: cycle counts diverge: naive %d, scheduled %d", seed, naive.cycles, sched.cycles)
		}
		if !reflect.DeepEqual(naive.snaps, sched.snaps) {
			t.Fatalf("seed %d: hook observations diverge:\nnaive     %v\nscheduled %v", seed, naive.snaps, sched.snaps)
		}
		for i := range naive.comps {
			a, b := naive.comps[i], sched.comps[i]
			if a.idle != b.idle || !equalU64(a.log, b.log) {
				t.Fatalf("seed %d ticker %d diverges:\nnaive     idle=%d log=%v\nscheduled idle=%d log=%v",
					seed, i, a.idle, a.log, b.idle, b.log)
			}
		}
	}
	if skipped == 0 || leaped == 0 {
		t.Fatalf("test exercised nothing: %d ticks skipped, %d cycles leaped", skipped, leaped)
	}
}

// dozer sleeps until wakeAt, works on that cycle and goes back to sleep
// for good: every wake it ever gets is someone else's doing.
type dozer struct {
	wakeAt uint64
	worked []uint64
	ticked []uint64
	asked  int
}

func (d *dozer) Tick(now uint64) uint64 {
	d.ticked = append(d.ticked, now)
	if now >= d.wakeAt {
		d.worked = append(d.worked, now)
		d.wakeAt = NoWake
	}
	return d.wakeAt
}
func (d *dozer) NextWake(now uint64) uint64 { d.asked++; return max(d.wakeAt, now) }
func (d *dozer) Skip(from, to uint64)       {}

// poker runs do on the cycles listed in at (ascending) and sleeps in
// between.
type poker struct {
	at []uint64
	do func(now uint64)
}

func (p *poker) Tick(now uint64) uint64 {
	if len(p.at) > 0 && p.at[0] == now {
		p.at = p.at[1:]
		p.do(now)
	}
	return p.NextWake(now + 1)
}
func (p *poker) NextWake(now uint64) uint64 {
	if len(p.at) == 0 {
		return NoWake
	}
	return max(p.at[0], now)
}
func (p *poker) Skip(from, to uint64) {}

func TestPokeWithoutWakeEndsInDeadline(t *testing.T) {
	// The edge the contract adds: input handed to a sleeping ticker must
	// come with a Wake. A missing one does not diverge silently — the
	// sleeper's remembered NoWake stands, everyone sleeps, and the run
	// leaps to its deadline.
	for _, wakes := range []bool{true, false} {
		e := NewEngine()
		d := &dozer{wakeAt: NoWake}
		var w Waker
		e.Register("poker", &poker{at: []uint64{3}, do: func(now uint64) {
			d.wakeAt = now + 1
			if wakes {
				w.Wake(now + 1)
			}
		}})
		w = e.Register("dozer", d)
		cycles, err := e.Run(50, func() bool { return len(d.worked) > 0 })
		var dl *ErrDeadline
		if wakes && (err != nil || cycles != 5 || !equalU64(d.worked, []uint64{4})) {
			t.Fatalf("with Wake: Run = %d, %v, worked %v; want the poke honoured at cycle 4", cycles, err, d.worked)
		}
		if !wakes && (!errors.As(err, &dl) || cycles != 50 || len(d.worked) != 0) {
			t.Fatalf("without Wake: Run = %d, %v, worked %v; want the 50-cycle deadline", cycles, err, d.worked)
		}
	}
}

func TestPokeBetweenCallsNeedsNoWake(t *testing.T) {
	// Remembered answers live inside one Step or Run call: code between
	// calls may touch anything (Table 1's probes drive the caches between
	// Steps), so both forget on entry and ask everyone afresh.
	e := NewEngine()
	d := &dozer{wakeAt: NoWake}
	e.Register("dozer", d)
	e.Step()
	e.Step()
	d.wakeAt = e.Now()
	e.Step()
	if !equalU64(d.worked, []uint64{2}) {
		t.Fatalf("poke between Steps: worked %v, want [2]", d.worked)
	}
	if _, err := e.Run(5, func() bool { return false }); err == nil {
		t.Fatal("want the deadline")
	}
	d.wakeAt = e.Now() + 2
	cycles, err := e.Run(50, func() bool { return len(d.worked) > 1 })
	if err != nil || cycles != 3 || !equalU64(d.worked, []uint64{2, 10}) {
		t.Fatalf("poke between Runs: Run = %d, %v, worked %v; want cycle 10 worked", cycles, err, d.worked)
	}
}

func TestWakeFromEitherSideOfTheSlot(t *testing.T) {
	// Wake only lowers, so it is safe from a slot earlier in the cycle
	// (the target's turn is still to come: it is passed over until the
	// pushed cycle, or ticked in this very cycle if that is the one
	// pushed), from a later one (its turn has passed: nothing to undo),
	// and from a later one with a cycle that is already here (ticked at
	// its next turn, one cycle on — where the naive schedule sees the
	// poke too), or with the next cycle after the target's own Tick
	// answered NoWake in this one (cycle 15). A wake later than the
	// remembered cycle (cycle 3 pushes 8 onto the 5 pushed at 2) must not
	// raise it. A push is a tick: the target is ticked at every pushed
	// cycle, 14 too, where it has nothing to do, and asked NextWake only
	// as a Run or Step opens.
	run := func(scheduled bool) (*dozer, *Engine) {
		e := NewEngine()
		d := &dozer{wakeAt: NoWake}
		var w Waker
		poke := func(delays map[uint64]uint64) func(uint64) {
			return func(now uint64) { d.wakeAt = now + delays[now]; w.Wake(d.wakeAt) }
		}
		early := &poker{at: []uint64{2, 15}, do: poke(map[uint64]uint64{2: 3, 15: 0})}
		late := &poker{at: []uint64{7, 11, 15}, do: poke(map[uint64]uint64{7: 2, 11: 0, 15: 1})}
		noise := &poker{at: []uint64{3, 13}, do: func(now uint64) { w.Wake(map[uint64]uint64{3: 8, 13: 14}[now]) }}
		if scheduled {
			e.Register("early", early)
			w = e.Register("dozer", d)
			e.Register("late", late)
			e.Register("noise", noise)
		} else {
			for _, c := range []Ticker{early, d, late, noise} {
				e.Register("naive", TickFunc(func(now uint64) { c.Tick(now) }))
			}
		}
		if cycles, _ := e.Run(20, func() bool { return false }); cycles != 20 {
			t.Fatalf("Run = %d cycles, want the 20-cycle deadline", cycles)
		}
		return d, e
	}
	naive, _ := run(false)
	sched, e := run(true)
	if want := []uint64{5, 9, 12, 15, 16}; !equalU64(naive.worked, want) || !equalU64(sched.worked, want) {
		t.Fatalf("worked: naive %v, scheduled %v; want %v", naive.worked, sched.worked, want)
	}
	// Pushed at 2, 7, 11, 13 and twice at 15, each Tick answering NoWake.
	if want := []uint64{5, 9, 12, 14, 15, 16}; !equalU64(sched.ticked, want) || sched.asked != 1 {
		t.Fatalf("dozer ticked at %v, asked %d times; want %v, asked once", sched.ticked, sched.asked, want)
	}
	e.Step()
	e.Run(3, func() bool { return false })
	if len(sched.ticked) != 6 || sched.asked != 3 {
		t.Fatalf("after a Step and a Run: dozer ticked at %v, asked %d times; want no tick, asked twice more", sched.ticked, sched.asked)
	}
	var zero Waker
	zero.Wake(3) // wakes nobody, touches nothing
}

func equalU64(got, want []uint64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// eager is a ticker that acts early: inside each Tick it also executes
// the cycles up to the engine's Horizon (at most reach of them), says so
// through NextWake and charges nothing below in Skip. It fails the test
// if it is ticked behind what it executed or past a cycle nobody ran.
type eager struct {
	t     *testing.T
	e     *Engine
	reach uint64
	ahead uint64 // first cycle neither executed nor slept through
	slept uint64 // cycles charged by Skip
}

func (g *eager) Tick(now uint64) uint64 {
	if now != g.ahead {
		g.t.Fatalf("Tick(%d) with cycles up to %d accounted for", now, g.ahead)
	}
	g.ahead = max(now+1, min(now+1+g.reach, g.e.Horizon()))
	return g.ahead
}

func (g *eager) NextWake(now uint64) uint64 { return max(now, g.ahead) }
func (g *eager) Skip(from, to uint64) {
	if from = max(from, g.ahead); from < to {
		g.slept, g.ahead = g.slept+to-from, to
	}
}

// TestHorizonBoundsATickerActingEarly pins Engine.Horizon from the three
// sides that impose it: an Every hook never finds the ticker ahead of the
// clock, a deadline never finds it past the limit, a Step leaves it
// exactly at the clock. A Run that done ends may leave it ahead — the
// benchmark's slices do — and the Run that follows, having forgotten
// every wake, must pick it up from its NextWake without ticking it early.
func TestHorizonBoundsATickerActingEarly(t *testing.T) {
	build := func() (*Engine, *eager) {
		e := NewEngine()
		g := &eager{t: t, e: e, reach: 7}
		e.Register("eager", g)
		e.Register("plain", TickFunc(func(uint64) {})) // always awake: no cycle is leaped
		return e, g
	}
	e, g := build()
	hooks := 0
	e.Every(10, func(now uint64) {
		hooks++
		if g.ahead != now {
			t.Fatalf("hook at %d: ticker has executed up to %d", now, g.ahead)
		}
	})
	for i := 0; i < 3; i++ {
		e.Step()
		if g.ahead != e.Now() {
			t.Fatalf("after Step %d the ticker is at %d, the clock at %d", i, g.ahead, e.Now())
		}
	}
	if _, err := e.Run(92, func() bool { return false }); err == nil || g.ahead != 95 || e.Now() != 95 {
		t.Fatalf("deadline: err=%v, ticker at %d, clock at %d; want both at 95", err, g.ahead, e.Now())
	}
	if hooks != 9 || g.slept != 0 {
		t.Fatalf("%d hooks fired, %d cycles charged to Skip; want 9 and 0", hooks, g.slept)
	}
	// done-ended slices, no hook in the way: the ticker is ahead at the
	// boundary and the next Run resumes it where it stands.
	e, g = build()
	aheadAtBoundary := 0
	for end := uint64(5); end <= 60; end += 5 {
		if _, err := e.Run(1000, func() bool { return e.Now() >= end }); err != nil || e.Now() != end {
			t.Fatalf("slice to %d: err=%v, clock at %d", end, err, e.Now())
		}
		if g.ahead > end {
			aheadAtBoundary++
		}
	}
	if aheadAtBoundary == 0 || g.slept != 0 {
		t.Fatalf("ticker ahead at %d slice boundaries, %d cycles charged to Skip", aheadAtBoundary, g.slept)
	}
}

func TestPortLatency(t *testing.T) {
	p := NewPort[int](0)
	p.Send(42, 10)
	if _, ok := p.Recv(9); ok {
		t.Fatal("message delivered before its cycle")
	}
	v, ok := p.Recv(10)
	if !ok || v != 42 {
		t.Fatalf("Recv = %d, %v", v, ok)
	}
	if _, ok := p.Recv(11); ok {
		t.Fatal("message delivered twice")
	}
}

func TestPortFIFOEvenWithEarlierLaterMessage(t *testing.T) {
	// A later message with an earlier ready cycle must still wait for
	// the head: ports are strictly FIFO.
	p := NewPort[string](0)
	p.Send("first", 100)
	p.Send("second", 1)
	if _, ok := p.Recv(50); ok {
		t.Fatal("second message overtook the first")
	}
	v, _ := p.Recv(100)
	if v != "first" {
		t.Fatalf("head = %q", v)
	}
	v, ok := p.Recv(100)
	if !ok || v != "second" {
		t.Fatalf("second = %q, %v", v, ok)
	}
}

func TestPortCapacity(t *testing.T) {
	p := NewPort[int](2)
	if !p.Send(1, 0) || !p.Send(2, 0) {
		t.Fatal("sends within capacity failed")
	}
	if p.Send(3, 0) {
		t.Fatal("send above capacity accepted")
	}
	if p.CanSend() {
		t.Fatal("CanSend on a full port")
	}
	p.Recv(0)
	if !p.CanSend() {
		t.Fatal("CanSend after drain")
	}
}

func TestPortPeek(t *testing.T) {
	p := NewPort[int](0)
	p.Send(7, 3)
	if p.Ready(2) {
		t.Fatal("head ready before its cycle")
	}
	if !p.Ready(3) || *p.Head() != 7 {
		t.Fatalf("Ready(3) = %v, Head = %d", p.Ready(3), *p.Head())
	}
	if p.Len() != 1 {
		t.Fatal("peek consumed the message")
	}
}

func TestPortNextAt(t *testing.T) {
	p := NewPort[int](0)
	if _, ok := p.NextAt(); ok {
		t.Fatal("NextAt on an empty port")
	}
	p.Send(1, 9)
	p.Send(2, 3)
	// FIFO: the head's cycle governs even though a later message is
	// ready earlier.
	at, ok := p.NextAt()
	if !ok || at != 9 {
		t.Fatalf("NextAt = %d, %v; want the head's cycle 9", at, ok)
	}
	p.Recv(9)
	at, ok = p.NextAt()
	if !ok || at != 3 {
		t.Fatalf("NextAt after pop = %d, %v; want 3", at, ok)
	}
}

func TestPortOrderProperty(t *testing.T) {
	// Every queue between a controller and a sink is a Port, so the
	// whole contract is held against the obvious queue: a slice of
	// (cycle, value) pairs, bounded by refusing sends, receivable at the
	// head only. Each script byte is one operation at an advancing
	// clock: a send (with a delay that may put it ahead of its
	// predecessors' cycles, which must not let it overtake them) or a
	// receive attempt; every accessor is compared after each.
	type entry struct {
		at  uint64
		val int
	}
	f := func(capacity uint8, script []uint8) bool {
		capN := int(capacity % 5) // 0 = unbounded
		p := NewPort[int](capN)
		var ref []entry
		for i, op := range script {
			now := uint64(i / 2)
			if op&1 == 0 {
				at := now + uint64(op>>4)
				room := capN == 0 || len(ref) < capN
				if p.CanSend() != room || p.Send(i, at) != room {
					return false
				}
				if room {
					ref = append(ref, entry{at, i})
				}
			} else {
				ready := len(ref) > 0 && ref[0].at <= now
				if p.Ready(now) != ready || (ready && *p.Head() != ref[0].val) {
					return false
				}
				v, ok := p.Recv(now)
				if ok != ready || (ready && v != ref[0].val) {
					return false
				}
				if ready {
					ref = ref[1:]
				}
			}
			if p.Len() != len(ref) || p.Empty() != (len(ref) == 0) {
				return false
			}
			if at, ok := p.NextAt(); ok != (len(ref) > 0) || (ok && at != ref[0].at) {
				return false
			}
			var walked []entry
			p.Each(func(at uint64, v int) { walked = append(walked, entry{at, v}) })
			if len(walked) != len(ref) {
				return false
			}
			for j := range ref {
				if walked[j] != ref[j] {
					return false
				}
			}
		}
		// Drain: whatever the cycles, what is left comes out in send
		// order.
		for now := uint64(len(script)); len(ref) > 0; now++ {
			if v, ok := p.Recv(now); ok {
				if v != ref[0].val || ref[0].at > now {
					return false
				}
				ref = ref[1:]
			} else if ref[0].at <= now {
				return false
			}
		}
		return p.Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
