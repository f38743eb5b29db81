package sim

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// scanAdvance is advance without the calendar: every remembered wake is
// read at its slot's turn, so the due slots are found by a scan of all of
// them. It is the reference TestCalendarMatchesScan holds advance to.
func (e *Engine) scanAdvance(limit uint64) {
	now := e.now
	e.limit = limit
	ran := false
	for i, w := range e.wake { // read at slot i's turn: an earlier slot's Wake counts
		if w > now {
			continue
		}
		s := &e.slots[i]
		if s.sleep != nil && s.settled < now {
			s.settle(now)
		}
		e.wake[i] = max(s.tick.Tick(now), now+1)
		s.ticks++
		s.settled = now + 1
		ran = true
	}
	target := now + 1
	if !ran {
		wake := limit
		for _, w := range e.wake {
			wake = min(wake, w)
		}
		if wake != NoWake {
			target = wake
		}
		e.leaps++
		e.leapedCycles += target - now
	}
	for e.now < target { // every hook boundary crossed, as advance
		next := target
		for _, p := range e.periodics {
			next = min(next, (e.now/p.interval+1)*p.interval)
		}
		e.now = next
		settled := false
		for _, p := range e.periodics {
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

// scanRun is Run on scanAdvance.
func (e *Engine) scanRun(maxCycles uint64, done func() bool) (uint64, error) {
	start, limit := e.now, NoWake
	if maxCycles != 0 {
		limit = start + maxCycles
	}
	e.forget() // fills e.wake; the scan never reads the calendar
	defer e.settle()
	for !done() {
		if e.now >= limit {
			return e.now - start, &ErrDeadline{Cycles: maxCycles}
		}
		e.scanAdvance(limit)
	}
	return e.now - start, nil
}

// rover is a seeded ticker for the lock-step test. Each tick answers a
// drawn nap — a few cycles, past the wheel's 64, or for good — and
// sometimes hands a peer input that takes effect this cycle or the next,
// with the Wake the contract asks for.
type rover struct {
	id    int
	rng   *rand.Rand
	wake  uint64
	slept uint64
	peers []*rover
	waker Waker
	log   *[][2]uint64 // cycle, rover id; shared by the machine
}

func (r *rover) Tick(now uint64) uint64 {
	*r.log = append(*r.log, [2]uint64{now, uint64(r.id)})
	switch d := r.rng.Intn(16); {
	case d == 0:
		r.wake = NoWake
	case d < 4:
		r.wake = now + 60 + uint64(r.rng.Intn(200))
	default:
		r.wake = now + 1 + uint64(r.rng.Intn(12))
	}
	if r.rng.Intn(3) == 0 {
		p := r.peers[r.rng.Intn(len(r.peers))]
		if at := now + uint64(r.rng.Intn(2)); at < p.wake {
			p.wake = at
			p.waker.Wake(at)
		}
	}
	return r.wake
}
func (r *rover) NextWake(uint64) uint64 { return r.wake }
func (r *rover) Skip(from, to uint64)   { r.slept += to - from }

func TestCalendarMatchesScan(t *testing.T) {
	// The calendar is an index over e.wake, so it must pick the very
	// slots a scan of e.wake picks, in the same order, on every cycle:
	// random machines of 1-150 rovers (three bitset words), sometimes
	// with a ticker that never sleeps, an Every hook and a deadline, run
	// once on advance and once on scanAdvance.
	type outcome struct {
		log     [][2]uint64 // ticks, and hook firings as id NoWake
		slept   []uint64
		counts  []TickCount
		cycles  uint64
		leaps   [2]uint64
		expired bool
	}
	run := func(seed int64, scan bool) outcome {
		rng := rand.New(rand.NewSource(seed))
		var o outcome
		e := NewEngine()
		rovers := make([]*rover, 1+rng.Intn(150))
		plain := rng.Intn(8) == 0
		for i := range rovers {
			rovers[i] = &rover{id: i, rng: rand.New(rand.NewSource(rng.Int63())), peers: rovers, log: &o.log}
			if plain && i == len(rovers)/2 {
				e.Register("plain", TickFunc(func(uint64) {}))
			}
			rovers[i].waker = e.Register([]string{"a", "b", "c"}[i%3], rovers[i])
		}
		e.Every(1+uint64(rng.Intn(100)), func(now uint64) {
			var slept uint64
			for _, r := range rovers {
				slept += r.slept
			}
			o.log = append(o.log, [2]uint64{now, NoWake}, [2]uint64{slept, NoWake})
		})
		work, deadline := 200+rng.Intn(2000), uint64(rng.Intn(3000))
		done := func() bool { return len(o.log) >= work }
		var err error
		if scan {
			o.cycles, err = e.scanRun(deadline, done)
		} else {
			o.cycles, err = e.Run(deadline, done)
		}
		var dl *ErrDeadline
		if o.expired = errors.As(err, &dl); err != nil && !o.expired {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, r := range rovers {
			o.slept = append(o.slept, r.slept)
		}
		o.counts, o.leaps = e.TickCounts(), [2]uint64{e.Leaps(), e.LeapedCycles()}
		return o
	}
	var leaped, far uint64
	for seed := int64(1); seed <= 400; seed++ {
		want, got := run(seed, true), run(seed, false)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("seed %d: the calendar and the scan diverge:\nscan     %d cycles, leaps %v, deadline %v, counts %v, slept %v\ncalendar %d cycles, leaps %v, deadline %v, counts %v, slept %v\nfirst log difference at %d",
				seed, want.cycles, want.leaps, want.expired, want.counts, want.slept,
				got.cycles, got.leaps, got.expired, got.counts, got.slept, firstDiff(want.log, got.log))
		}
		leaped += got.leaps[1]
		if got.leaps[1] > 64*got.leaps[0] {
			far++
		}
	}
	if leaped == 0 || far == 0 {
		t.Fatalf("test exercised too little: %d cycles leaped, %d machines leaping past the wheel", leaped, far)
	}
}

func firstDiff(a, b [][2]uint64) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

func TestDeadCycleWithADueSlotPanics(t *testing.T) {
	// A remembered wake that has come on a cycle nobody ran is a slot the
	// calendar lost: a panic naming it, not a run stuck on one cycle.
	e := NewEngine()
	d := &dozer{wakeAt: NoWake}
	e.Register("dozer", d)
	e.Step()
	e.wake[0] = e.now // due, but filed nowhere
	clear(e.wheel)
	defer func() {
		if r := recover(); r != "sim: cycle 1: slot 0 (dozer) due at 1 was passed over" {
			t.Fatalf("recovered %v", r)
		}
	}()
	e.advance(NoWake)
}
