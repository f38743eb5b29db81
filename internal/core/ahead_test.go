package core

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/coherence"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/workload"
)

// buildWaterSys wires a small water run — FPU waits, spin-locks, a
// barrier per step — under proto, on the scheduled engine or the naive
// reference schedule.
func buildWaterSys(t *testing.T, proto coherence.Protocol, n int, naive bool, maxCycles uint64) *System {
	t.Helper()
	spec, err := workload.BuildWater(mem.DefaultLayout(n), codegen.DS,
		workload.WaterParams{Threads: n, MolsPerThread: 2, Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(proto, mem.Arch2, n)
	cfg.DisableLeap = naive
	if maxCycles != 0 {
		cfg.MaxCycles = maxCycles
	}
	sys, err := Build(cfg, spec.Image)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// ranAhead sums what the cores retired ahead of the clock.
func ranAhead(sys *System) (instr uint64) {
	for _, c := range sys.CPUs {
		a, _ := c.Ahead()
		instr += a
	}
	return instr
}

// TestObserversNeverSeeACoreAhead: the interval sampler and the runtime
// checker are Every hooks, and Engine.Horizon stops every core at the
// next hook boundary, so what they record is what the naive schedule
// records — and what the parent of the run-ahead change recorded (the
// hash below was taken there). Without that bound the CSV differs from
// row 10 on while every other test stays green.
func TestObserversNeverSeeACoreAhead(t *testing.T) {
	const golden = "cd838fd8ce9205b5" // fnv64a of the CSV, recorded at PR 21
	run := func(naive bool) (string, *System) {
		sys := buildWaterSys(t, coherence.WBMESI, 2, naive, 0)
		rec := obs.New(obs.Config{SampleInterval: 37})
		sys.AttachObserver(rec)
		sys.EnableRuntimeChecks(13)
		if _, err := sys.Run(); err != nil {
			t.Fatalf("naive=%t: %v", naive, err)
		}
		var csv bytes.Buffer
		if err := rec.Sampler().WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		return csv.String(), sys
	}
	naive, _ := run(true)
	sched, sys := run(false)
	if naive != sched {
		a, b := strings.Split(naive, "\n"), strings.Split(sched, "\n")
		for i := range a {
			if i >= len(b) || a[i] != b[i] {
				t.Fatalf("sampled CSV differs at row %d:\nnaive     %s\nscheduled %s", i, a[i], b[min(i, len(b)-1)])
			}
		}
		t.Fatalf("sampled CSV: %d rows naive, %d scheduled", len(a), len(b))
	}
	h := fnv.New64a()
	h.Write([]byte(sched))
	if got := fmt.Sprintf("%016x", h.Sum64()); got != golden {
		t.Errorf("sampled CSV hashes to %s, want %s (%d rows)", got, golden, strings.Count(sched, "\n"))
	}
	if ranAhead(sys) == 0 {
		t.Fatal("no core ever ran ahead: the bound went untested")
	}
}

// TestDeadlineMidSpinNamesTheSamePCs: a deadline is an observer too. The
// pcs its error lists are where the cores stand at that cycle, never
// where a burst would have taken them — the same text on both schedules,
// at deadlines that fall in lock spins, barrier spins and FPU waits.
func TestDeadlineMidSpinNamesTheSamePCs(t *testing.T) {
	var ahead uint64
	for deadline := uint64(400); deadline < 6000; deadline += 397 {
		var text [2]string
		for i, naive := range []bool{true, false} {
			sys := buildWaterSys(t, coherence.WBMESI, 2, naive, deadline)
			_, err := sys.Run()
			if err == nil {
				t.Fatalf("deadline %d: the run finished; shorten the sweep", deadline)
			}
			text[i] = err.Error()
			ahead += ranAhead(sys)
		}
		if text[0] != text[1] || !strings.Contains(text[0], "pcs: [cpu") {
			t.Errorf("deadline %d:\nnaive     %s\nscheduled %s", deadline, text[0], text[1])
		}
	}
	if ahead == 0 {
		t.Fatal("no core ever ran ahead before a deadline")
	}
}

// TestSlicedRunResumesCoresAhead drives the engine the way the benchmark
// does: Run after Run, each ended by done at a slice boundary with the
// deadline far off, so nothing bounds a burst at the boundary and Run
// returns with cores ahead of the clock (they have retired more than the
// naive run at the same cycle). The next Run forgets every wake and must
// resume each core at the cycle it stands at. The end state is the
// unsliced naive run's.
func TestSlicedRunResumesCoresAhead(t *testing.T) {
	const slice = 5 // well inside the GMN's lookahead of 11
	naive := buildWaterSys(t, coherence.WTI, 4, true, 0)
	sched := buildWaterSys(t, coherence.WTI, 4, false, 0)
	boundariesAhead := 0
	for end := uint64(slice); !naive.AllHalted() || !sched.AllHalted(); end += slice {
		for _, sys := range []*System{naive, sched} {
			eng := sys.Engine
			if _, err := eng.Run(1_000_000, func() bool { return eng.Now() >= end || sys.AllHalted() }); err != nil {
				t.Fatal(err)
			}
		}
		for i, c := range sched.CPUs {
			if c.Stats().Instructions > naive.CPUs[i].Stats().Instructions {
				boundariesAhead++
			}
		}
	}
	if boundariesAhead == 0 {
		t.Fatal("no core was ever ahead at a slice boundary")
	}
	if naive.Engine.Now() != sched.Engine.Now() {
		t.Fatalf("halted at cycle %d naive, %d scheduled", naive.Engine.Now(), sched.Engine.Now())
	}
	a, b := naive.collect(naive.Engine.Now()), sched.collect(sched.Engine.Now())
	a.Config.DisableLeap = false
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sliced runs differ:\nnaive     %+v\nscheduled %+v", a, b)
	}
}

// TestOnlyACoreWakesAfterADelivery: a core ticks before its node, so it
// reacts to a delivery a cycle late and its cluster must run on the cycle
// after; a bank's sink reacts inside HandleMsg, so a bank node whose own
// wake lies later sleeps through that cycle. On the naive schedule, which
// ticks every part every cycle, the bank's Tick there must be a strict
// no-op: its port, directory, service slot and counters do not move.
func TestOnlyACoreWakesAfterADelivery(t *testing.T) {
	for _, proto := range []coherence.Protocol{coherence.WTI, coherence.WBMESI} {
		sys := buildWaterSys(t, proto, 4, true, 0)
		var clusters []*cluster
		for i, c := range sys.CPUs {
			clusters = append(clusters, &cluster{cpu: c, dc: sys.DCaches[i], ic: sys.ICaches[i], node: sys.Nodes[i], sys: sys, net: sys.Net})
		}
		bank := func(b int, now uint64) string {
			var e coherence.Enc
			sys.BNodes[b].Fingerprint(&e, now)
			sys.Banks[b].Fingerprint(&e, now)
			nd := sys.BNodes[b]
			return fmt.Sprintf("%x %+v %d %d", e, *sys.Banks[b].Stats(), nd.Retransmits, nd.BackoffCycles)
		}
		var cores, slept int
		sys.Engine.Step() // cycle 0: RecvVeto's zero value names it
		for now := uint64(1); now < 30_000 && !sys.AllHalted(); now++ {
			for i, cl := range clusters {
				if sys.Nodes[i].RecvVeto(now) == now {
					if w := cl.NextWake(now); w != now {
						t.Fatalf("%v: cluster %d consumed a delivery at %d, NextWake(%d) = %d", proto, i, now-1, now, w)
					}
					cores++
				}
			}
			type snap struct {
				b  int
				fp string
			}
			var sleeping []snap
			for b, nd := range sys.BNodes {
				if nd.RecvVeto(now) == now && nd.NextWake(now) > now {
					sleeping = append(sleeping, snap{b, bank(b, now)})
				}
			}
			sys.Engine.Step()
			for _, s := range sleeping {
				if fp := bank(s.b, now); fp != s.fp {
					t.Fatalf("%v: bank %d's Tick at %d, the cycle after a delivery, changed it:\n%s\n%s", proto, s.b, now, s.fp, fp)
				}
			}
			slept += len(sleeping)
		}
		t.Logf("%v: %d cluster wakes after a delivery, %d bank nodes asleep after one", proto, cores, slept)
		if cores == 0 || slept == 0 {
			t.Fatalf("%v: vacuous: %d cluster wakes, %d sleeping banks", proto, cores, slept)
		}
	}
}

// TestSchedulePinned pins the schedule, not only its Result: a lock
// counter under WB on arch1 at n = 8, whose cores run ahead and prove
// spins, clean and under a fault plan whose stall windows and quieting
// deliveries move wakes later. The counts were recorded with bursts that
// cross I-lines and bank nodes that sleep through the cycle after a
// delivery. A Tick that answers a cycle the ticker would not run at — a cluster
// answering where its core's run-ahead stopped rather than NextWake there,
// a network missing its fault layer's Wake — keeps every Result byte and
// moves these: spin sleeps cut short, fewer ticks skipped.
func TestSchedulePinned(t *testing.T) {
	for _, c := range []struct{ fault, want string }{
		{"", "cpus 44896/1133152; banks 25913/268599; noc 18794/128462; " +
			"leaped 80995, ahead 247745 in 27225, spun 439 for 25259"},
		{"drop=1e-3,dup=1e-3,bankstall=0.02:12,seed=42", "cpus 45545/1160511; banks 26028/275486; noc 145022/5735; " +
			"leaped 3470, ahead 252452 in 27768, spun 435 for 26297"},
	} {
		cfg := DefaultConfig(coherence.WBMESI, mem.Arch1, 8)
		var err error
		if cfg.Fault, err = fault.ParsePlan(c.fault); err != nil {
			t.Fatal(err)
		}
		sys := buildCounterSys(t, cfg)
		if _, err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, c := range sys.Engine.TickCounts() {
			got = append(got, fmt.Sprintf("%s %d/%d", c.Name, c.Executed, c.Skipped))
		}
		var ahead, bursts, sleeps, slept uint64
		for _, c := range sys.CPUs {
			a, b := c.Ahead()
			s, n := c.Spun()
			ahead, bursts, sleeps, slept = ahead+a, bursts+b, sleeps+s, slept+n
		}
		got = append(got, fmt.Sprintf("leaped %d, ahead %d in %d, spun %d for %d",
			sys.Engine.LeapedCycles(), ahead, bursts, sleeps, slept))
		if s := strings.Join(got, "; "); s != c.want {
			t.Errorf("fault plan %q: schedule moved:\ngot  %s\nwant %s", c.fault, s, c.want)
		}
	}
}
