package sim

import (
	"errors"
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

func TestEngineWatchdogAbortsRun(t *testing.T) {
	e := NewEngine()
	ticks := 0
	e.Register("t", TickFunc(func(now uint64) { ticks++ }))
	wantErr := errors.New("transaction stuck")
	polled := []uint64{}
	e.Watchdog(func(now uint64) error {
		polled = append(polled, now)
		if now >= 3 {
			return wantErr
		}
		return nil
	})
	cycles, err := e.Run(100, func() bool { return false })
	if !errors.Is(err, wantErr) {
		t.Fatalf("Run error = %v; want the watchdog's error", err)
	}
	if cycles != 3 || ticks != 3 {
		t.Fatalf("cycles=%d ticks=%d; want the run aborted right at the failing poll", cycles, ticks)
	}
	// Polled once per executed cycle, after that cycle's tickers.
	if len(polled) != 3 || polled[0] != 1 || polled[2] != 3 {
		t.Fatalf("watchdog polled at %v; want [1 2 3]", polled)
	}
}

func TestEngineWatchdogQuietWhenHealthy(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Register("c", TickFunc(func(now uint64) { count++ }))
	calls := 0
	e.Watchdog(func(now uint64) error { calls++; return nil })
	cycles, err := e.Run(0, func() bool { return count >= 5 })
	if err != nil || cycles != 5 {
		t.Fatalf("Run = %d, %v; want 5 clean cycles", cycles, err)
	}
	if calls != 5 {
		t.Fatalf("watchdog polled %d times; want once per cycle", calls)
	}
}

// TestEngineWatchdogPolledAfterTickersAndHooks pins the Run-loop order
// within one cycle: the watchdog polled after executing cycle t-1 (at
// now == t) has already seen that cycle's tickers and Every hooks.
func TestEngineWatchdogPolledAfterTickersAndHooks(t *testing.T) {
	e := NewEngine()
	var lastTick, lastHook uint64
	e.Register("t", TickFunc(func(now uint64) { lastTick = now }))
	e.Every(1, func(now uint64) { lastHook = now })
	var polled []uint64
	e.Watchdog(func(now uint64) error {
		if lastTick != now-1 || lastHook != now {
			t.Fatalf("watchdog at now=%d saw tick of cycle %d, hook at %d; both must precede it",
				now, lastTick, lastHook)
		}
		polled = append(polled, now)
		return nil
	})
	if _, err := e.Run(3, func() bool { return false }); err == nil {
		t.Fatal("Run: want the 3-cycle deadline")
	}
	if !equalU64(polled, []uint64{1, 2, 3}) {
		t.Fatalf("watchdog polls = %v, want [1 2 3]", polled)
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

func TestEngineIdleSkip(t *testing.T) {
	e := NewEngine()
	idle := false
	var ticks, plainTicks int
	e.Register("skippable", TickerWithIdle(
		func(now uint64) { ticks++ },
		func(now uint64) bool { return idle },
	))
	e.Register("plain", TickFunc(func(now uint64) { plainTicks++ }))

	e.Step()
	e.Step()
	if ticks != 2 || e.SkippedTicks() != 0 {
		t.Fatalf("busy phase: ticks=%d skipped=%d", ticks, e.SkippedTicks())
	}
	idle = true
	e.Step()
	e.Step()
	if ticks != 2 {
		t.Fatalf("idle ticker still ran: ticks=%d", ticks)
	}
	if e.SkippedTicks() != 2 {
		t.Fatalf("skipped = %d, want 2", e.SkippedTicks())
	}
	// Only the Idler is skipped; other tickers and the cycle count
	// advance as always.
	if plainTicks != 4 || e.Now() != 4 {
		t.Fatalf("plainTicks=%d now=%d", plainTicks, e.Now())
	}
	idle = false
	e.Step()
	if ticks != 3 {
		t.Fatalf("ticker did not resume: ticks=%d", ticks)
	}
}

// scriptLeaper drives the engine's leap path from a table: wake decides
// NextWake per consultation, and every SkipTo span is recorded so tests
// can pin the exact segmentation Run performed.
type scriptLeaper struct {
	wake  func(cur uint64) uint64
	spans [][2]uint64
}

func (l *scriptLeaper) NextWake(cur uint64) uint64 { return l.wake(cur) }
func (l *scriptLeaper) SkipTo(cur, target uint64) {
	l.spans = append(l.spans, [2]uint64{cur, target})
}

func TestLeapFiresEveryCrossedHookBoundary(t *testing.T) {
	// A leap over [1,14) must fire the Every(3) hook at 3, 6, 9, 12 and
	// the Every(5) hook at 5, 10 — every interval multiple the span
	// crosses — exactly as stepped execution would have.
	e := NewEngine()
	steps := 0
	e.Register("t", TickFunc(func(now uint64) { steps++ }))
	var fired3, fired5 []uint64
	e.Every(3, func(now uint64) { fired3 = append(fired3, now) })
	e.Every(5, func(now uint64) { fired5 = append(fired5, now) })
	l := &scriptLeaper{wake: func(cur uint64) uint64 {
		if cur == 1 {
			return 14
		}
		return cur // veto: step normally
	}}
	e.SetLeaper(l)
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
	if steps != 7 {
		t.Fatalf("executed %d cycles; want 7", steps)
	}
	if e.Leaps() != 1 || e.LeapedCycles() != 13 {
		t.Fatalf("leaps=%d leaped=%d; want 1 leap of 13 cycles", e.Leaps(), e.LeapedCycles())
	}
	// The leap was segmented at every hook boundary, contiguously.
	wantSpans := [][2]uint64{{1, 3}, {3, 5}, {5, 6}, {6, 9}, {9, 10}, {10, 12}, {12, 14}}
	if len(l.spans) != len(wantSpans) {
		t.Fatalf("SkipTo spans = %v; want %v", l.spans, wantSpans)
	}
	for i := range wantSpans {
		if l.spans[i] != wantSpans[i] {
			t.Fatalf("SkipTo spans = %v; want %v", l.spans, wantSpans)
		}
	}
}

func TestLeapClampedToDeadline(t *testing.T) {
	// NoWake with a deadline: the engine leaps straight to the deadline
	// — never past it — and reports ErrDeadline at the exact cycle
	// count a stepped run would have.
	e := NewEngine()
	steps := 0
	e.Register("t", TickFunc(func(now uint64) { steps++ }))
	l := &scriptLeaper{wake: func(cur uint64) uint64 { return NoWake }}
	e.SetLeaper(l)
	cycles, err := e.Run(100, func() bool { return false })
	var dl *ErrDeadline
	if !errors.As(err, &dl) || dl.Cycles != 100 {
		t.Fatalf("Run err = %v; want the 100-cycle deadline", err)
	}
	if cycles != 100 || steps != 0 {
		t.Fatalf("cycles=%d steps=%d; want all 100 cycles leaped", cycles, steps)
	}
	if e.Leaps() != 1 || e.LeapedCycles() != 100 {
		t.Fatalf("leaps=%d leaped=%d", e.Leaps(), e.LeapedCycles())
	}
}

func TestLeapNoWakeWithoutDeadlineFallsBackToStepping(t *testing.T) {
	// With maxCycles 0 there is no deadline to clamp a NoWake leap to:
	// the engine must keep stepping so done() can end the run.
	e := NewEngine()
	count := 0
	e.Register("c", TickFunc(func(now uint64) { count++ }))
	l := &scriptLeaper{wake: func(cur uint64) uint64 { return NoWake }}
	e.SetLeaper(l)
	cycles, err := e.Run(0, func() bool { return count >= 5 })
	if err != nil || cycles != 5 || count != 5 {
		t.Fatalf("Run = %d, %v (count %d); want 5 stepped cycles", cycles, err, count)
	}
	if e.Leaps() != 0 || len(l.spans) != 0 {
		t.Fatalf("leaped %d spans with nothing to leap to", len(l.spans))
	}
}

// TestRegisterAfterSetLeaperDetachesLeaper pins the Register rule: an
// oracle installed before a later registration cannot vouch for the new
// ticker, so the engine drops it and steps every cycle — the late
// ticker (the trace harness's CPUs register this way) is never leaped
// over.
func TestRegisterAfterSetLeaperDetachesLeaper(t *testing.T) {
	e := NewEngine()
	e.Register("known", TickFunc(func(uint64) {}))
	e.SetLeaper(&scriptLeaper{wake: func(uint64) uint64 { return NoWake }})
	ticks := 0
	e.Register("late", TickFunc(func(uint64) { ticks++ }))
	if cycles, _ := e.Run(20, func() bool { return false }); cycles != 20 {
		t.Fatalf("Run = %d cycles, want the 20-cycle deadline", cycles)
	}
	if ticks != 20 || e.Leaps() != 0 {
		t.Fatalf("late ticker ran %d of 20 cycles with %d leaps; it must never be leaped over",
			ticks, e.Leaps())
	}
}

func TestLeapVetoedKeepsStepping(t *testing.T) {
	// NextWake <= cur is a veto: every cycle executes normally.
	e := NewEngine()
	steps := 0
	e.Register("t", TickFunc(func(now uint64) { steps++ }))
	consulted := 0
	l := &scriptLeaper{wake: func(cur uint64) uint64 { consulted++; return cur }}
	e.SetLeaper(l)
	if _, err := e.Run(6, func() bool { return false }); err == nil {
		t.Fatal("want ErrDeadline")
	}
	if steps != 6 || e.Leaps() != 0 || e.LeapedCycles() != 0 {
		t.Fatalf("steps=%d leaps=%d leaped=%d; want 6 stepped, 0 leaped", steps, e.Leaps(), e.LeapedCycles())
	}
	// Consulted once per cycle, before executing it.
	if consulted != 6 {
		t.Fatalf("leaper consulted %d times; want 6", consulted)
	}
}

func TestLeapDoneObservedAtLeapedToCycle(t *testing.T) {
	// done() and the deadline are re-checked at the leaped-to cycle
	// before it executes: a predicate that is true there ends the run
	// without an extra Step, at the same cycle count as stepped
	// execution.
	e := NewEngine()
	steps := 0
	e.Register("t", TickFunc(func(now uint64) { steps++ }))
	l := &scriptLeaper{wake: func(cur uint64) uint64 {
		if cur == 1 {
			return 9
		}
		return cur
	}}
	e.SetLeaper(l)
	cycles, err := e.Run(50, func() bool { return e.Now() >= 9 })
	if err != nil || cycles != 9 {
		t.Fatalf("Run = %d, %v; want done at cycle 9", cycles, err)
	}
	if steps != 1 {
		t.Fatalf("steps=%d; want only cycle 0 executed", steps)
	}
}

func TestLeapWatchdogPolledPerExecutedCycleOnly(t *testing.T) {
	// Watchdogs observe frozen state during a leapable window, so they
	// are polled after executed cycles only — and still abort the run
	// at the first executed cycle after a leap.
	e := NewEngine()
	e.Register("t", TickFunc(func(now uint64) {}))
	var polled []uint64
	wantErr := errors.New("stuck")
	e.Watchdog(func(now uint64) error {
		polled = append(polled, now)
		if now >= 11 {
			return wantErr
		}
		return nil
	})
	l := &scriptLeaper{wake: func(cur uint64) uint64 {
		if cur == 1 {
			return 10
		}
		return cur
	}}
	e.SetLeaper(l)
	cycles, err := e.Run(50, func() bool { return false })
	if !errors.Is(err, wantErr) || cycles != 11 {
		t.Fatalf("Run = %d, %v; want the watchdog abort at cycle 11", cycles, err)
	}
	if !equalU64(polled, []uint64{1, 11}) {
		t.Fatalf("watchdog polled at %v; want [1 11]", polled)
	}
}

// stallComp is a self-leaping component: it stalls (bumping a counter)
// until wakeAt, does one unit of work, then stalls again. Its Leaper
// half compensates the stall counter for leaped spans — the same
// contract the system-level leaper implements for CPU stalls and node
// backoff.
type stallComp struct {
	wakeAt uint64
	stall  uint64
	work   int
}

func (c *stallComp) Tick(now uint64) {
	if now < c.wakeAt {
		c.stall++
		return
	}
	c.work++
	c.wakeAt = now + 7
}

func (c *stallComp) NextWake(cur uint64) uint64 {
	if c.wakeAt > cur {
		return c.wakeAt
	}
	return cur
}

func (c *stallComp) SkipTo(cur, target uint64) { c.stall += target - cur }

func TestLeapEquivalentToSteppedRun(t *testing.T) {
	// The end-to-end cadence pin: a leaped run and a stepped run of the
	// same component must produce identical Every-hook observation
	// sequences, identical final counters, and identical cycle counts.
	run := func(leap bool) (snaps [][2]uint64, c *stallComp, cycles uint64) {
		e := NewEngine()
		c = &stallComp{}
		e.Register("c", c)
		e.Every(10, func(now uint64) {
			snaps = append(snaps, [2]uint64{now, c.stall})
		})
		if leap {
			e.SetLeaper(c)
		}
		cycles, err := e.Run(0, func() bool { return c.work >= 13 })
		if err != nil {
			t.Fatal(err)
		}
		return snaps, c, cycles
	}
	sSnaps, sComp, sCycles := run(false)
	lSnaps, lComp, lCycles := run(true)
	if sCycles != lCycles {
		t.Fatalf("cycle counts diverge: stepped %d, leaped %d", sCycles, lCycles)
	}
	if sComp.stall != lComp.stall || sComp.work != lComp.work {
		t.Fatalf("final state diverges: stepped %+v, leaped %+v", sComp, lComp)
	}
	if len(sSnaps) != len(lSnaps) {
		t.Fatalf("snapshot counts diverge: %v vs %v", sSnaps, lSnaps)
	}
	for i := range sSnaps {
		if sSnaps[i] != lSnaps[i] {
			t.Fatalf("snapshot %d diverges: stepped %v, leaped %v", i, sSnaps[i], lSnaps[i])
		}
	}
	if lComp.stall == 0 || sCycles < 80 {
		t.Fatalf("test exercised nothing: stall=%d cycles=%d", lComp.stall, sCycles)
	}
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
	if _, ok := p.Peek(2); ok {
		t.Fatal("peek before ready")
	}
	v, ok := p.Peek(3)
	if !ok || v != 7 {
		t.Fatalf("peek = %d, %v", v, ok)
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
	// Whatever the delivery cycles, messages come out in send order.
	f := func(delays []uint8) bool {
		if len(delays) == 0 {
			return true
		}
		p := NewPort[int](0)
		for i, d := range delays {
			p.Send(i, uint64(d))
		}
		var got []int
		for now := uint64(0); now < 300; now++ {
			for {
				v, ok := p.Recv(now)
				if !ok {
					break
				}
				got = append(got, v)
			}
		}
		if len(got) != len(delays) {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
