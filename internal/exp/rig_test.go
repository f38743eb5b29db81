package exp

// The random-machine differential rig: machines drawn at toy sizes over
// every axis a Run has, each run on the scheduled engine and on the naive
// reference schedule (every component ticked every cycle), which must
// agree on the whole Result, the final memory and, when an observer is
// attached, its latency report and sampled series. It is the net under
// every fast path of the schedule — sleeps, leaps, run-ahead bursts and
// spin sleeps — on machines no fixed matrix lists, and, with the runtime
// invariant checker armed on a share of the draws, under the protocols. The draw count is
// rigDraws: a bounded budget in go test, a longer tail under -tags soak
// (rig_soak_test.go). A failure names the Run key, which is the replay
// recipe: mcsim takes each of its segments as a flag.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/obs"
)

// drawRun draws one machine: a program (counter, ocean, water, on the
// runtime its architecture pairs with) or the prodcons stream, any
// protocol, architecture and network, 2 to 8 CPUs, direct-mapped or
// 2-way caches, a full-map or one-pointer directory, strict stores or
// cache-to-cache transfers where the protocol has them, and now and then
// a fault plan — at or below QuickScale.
func drawRun(rng *rand.Rand) Run {
	r := Run{
		Bench:       []Bench{Counter, Ocean, Water, ProdCons}[rng.Intn(4)],
		Protocol:    coherence.Protocol(rng.Intn(len(coherence.Protocols))),
		Arch:        []mem.Arch{mem.Arch1, mem.Arch2}[rng.Intn(2)],
		NumCPUs:     []int{2, 3, 4, 8}[rng.Intn(4)],
		NoC:         core.NoCKind(rng.Intn(3)),
		Ways:        2 * rng.Intn(2),
		DirPointers: rng.Intn(2),
		Scale: Scale{OceanRows: 1 + rng.Intn(2), OceanIters: 1 + rng.Intn(2), WaterMols: 1 + rng.Intn(2),
			WaterSteps: 1 + rng.Intn(2), CounterIncs: 1 + rng.Intn(8)},
	}
	switch r.Protocol {
	case coherence.WTI, coherence.WTU:
		r.StrictSC = rng.Intn(4) == 0
	case coherence.WBMESI:
		r.C2C = rng.Intn(2) == 0
	}
	if rng.Intn(5) == 0 {
		r.Fault = fmt.Sprintf("drop=0.002,delay=0.005:6,dup=0.002,bankstall=0.003:10,seed=%d", 1+rng.Intn(1000))
	}
	return r
}

// rigOutcome is everything one run of a drawn machine is compared on.
type rigOutcome struct {
	res    *core.Result // Latency included when observed
	space  *mem.Space   // final memory, caches flushed
	series string       // the sampled CSV when observed
	spins  uint64       // spin sleeps the cores entered
	lines  uint64       // I-lines the sleeps' tails entered
}

// rigRun runs r on one schedule; interval > 0 attaches an observer
// sampling at that interval, check > 0 the runtime invariant checker
// every check cycles.
func rigRun(t *testing.T, r Run, naive bool, interval, check uint64) rigOutcome {
	t.Helper()
	cfg, err := r.Config()
	if err != nil {
		t.Fatal(err)
	}
	cfg.DisableLeap = naive
	cfg.MaxCycles = 5_000_000
	sys, verify, err := Build(r, cfg, Scale{})
	if err != nil {
		t.Fatalf("%s: %v", r.Key(), err)
	}
	sys.EnableRuntimeChecks(check)
	var rec *obs.Recorder
	if interval > 0 {
		rec = obs.New(obs.Config{SampleInterval: interval})
		sys.AttachObserver(rec)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatalf("%s (naive=%t, observed every %d, checked every %d): %v", r.Key(), naive, interval, check, err)
	}
	sys.FlushCaches()
	if verify != nil {
		if err := verify(sys.Space); err != nil {
			t.Fatalf("%s (naive=%t): %v", r.Key(), naive, err)
		}
	}
	out := rigOutcome{res: res, space: sys.Space}
	if rec != nil {
		var csv bytes.Buffer
		if err := rec.Sampler().WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		out.series = csv.String()
	}
	for _, c := range sys.CPUs {
		n, _, l := c.Spun()
		out.spins, out.lines = out.spins+n, out.lines+l
	}
	res.Config.DisableLeap = false // the one field the schedules may differ in
	return out
}

// One draw in rigCheckShare runs scheduled with the runtime invariant
// checker armed every 1 to rigCheckEvery cycles, and at most rigChecks
// times a run.
const rigCheckShare, rigCheckEvery, rigChecks = 2, 16, 500

func TestRandomMachinesScheduledEqualsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(rigSeed))
	// The checker is armed from a stream of its own, so arming it leaves
	// the machines drawn unchanged. It rides on the scheduled run alone,
	// whose Result must not move for it, and its cap keeps a long draw as
	// cheap to check as a short one.
	arm := rand.New(rand.NewSource(-rigSeed))
	var spins, lines, checked uint64
	for i := 0; i < rigDraws; i++ {
		r := drawRun(rng)
		var interval, check uint64
		if rng.Intn(4) == 0 {
			interval = 1 + uint64(rng.Intn(200))
		}
		naive := rigRun(t, r, true, interval, 0)
		if arm.Intn(rigCheckShare) == 0 {
			check = max(1+uint64(arm.Intn(rigCheckEvery)), naive.res.Cycles/rigChecks)
			checked++
		}
		sched := rigRun(t, r, false, interval, check)
		if !reflect.DeepEqual(naive.res, sched.res) {
			t.Fatalf("draw %d, replay %s (observed every %d, checked every %d): results differ:\nnaive     %+v\nscheduled %+v",
				i, r.Key(), interval, check, naive.res, sched.res)
		}
		if !reflect.DeepEqual(naive.space, sched.space) || naive.series != sched.series {
			t.Fatalf("draw %d, replay %s (observed every %d): final memory or sampled series differ", i, r.Key(), interval)
		}
		spins, lines = spins+sched.spins, lines+sched.lines
	}
	t.Logf("%d machines (%d checked at run time), %d spin sleeps, whose tails entered %d I-lines", rigDraws, checked, spins, lines)
	if spins == 0 || lines == 0 {
		t.Fatal("no draw ever put a core into a spin sleep, or none into one whose loop straddles an I-line: the rig missed the fast path it guards")
	}

	// Saturated machines, from a stream of their own so that the draws
	// above stay as they are: 16 CPUs on the GMN, whose bank ports fill
	// and whose heads wait parked on full FIFOs; every other one under a
	// fault plan. The Result holds InjectStallCycles and every bank's
	// counters.
	sat := rand.New(rand.NewSource(rigSeed + 1))
	var stalls uint64
	for i := 0; i < rigDraws/12; i++ {
		r := drawRun(sat)
		r.NumCPUs, r.NoC, r.Fault = 16, core.GMNNet, ""
		r.Scale = Scale{OceanRows: 1, OceanIters: 1, WaterMols: 1, WaterSteps: 1, CounterIncs: 2}
		if i%2 == 1 {
			r.Fault = fmt.Sprintf("drop=1e-3,dup=1e-3,seed=%d", 1+sat.Intn(1000))
		}
		naive, sched := rigRun(t, r, true, 0, 0), rigRun(t, r, false, 0, 0)
		if !reflect.DeepEqual(naive.res, sched.res) || !reflect.DeepEqual(naive.space, sched.space) {
			t.Fatalf("saturated draw %d, replay %s: results differ:\nnaive     %+v\nscheduled %+v", i, r.Key(), naive.res, sched.res)
		}
		if r.Fault == "" {
			stalls += sched.res.Net.InjectStallCycles
		}
	}
	if stalls == 0 {
		t.Fatal("no fault-free saturated draw had an offer refused: the draws never filled a port, the regime they are drawn for")
	}
}

// TestCacheToCacheCountersHoldInvariantsEveryCycle runs the lock counter
// under the protocols that move blocks cache to cache, on every network,
// with the runtime invariant checker on every cycle. Two bugs showed
// here and nowhere in the model checker's scope: MOESI forwarding an
// Owned block to a writer before the other sharers' invalidations
// landed (SWMR), and a sharer's copy compared with memory while the
// owner's writeback of that block was still in flight.
func TestCacheToCacheCountersHoldInvariantsEveryCycle(t *testing.T) {
	for _, proto := range []coherence.Protocol{coherence.MOESI, coherence.WBMESI} {
		for noc := core.NoCKind(0); noc < 3; noc++ {
			for _, n := range []int{3, 4} {
				r := Run{Bench: Counter, Protocol: proto, Arch: mem.Arch2, NumCPUs: n, NoC: noc,
					C2C: proto == coherence.WBMESI, Scale: Scale{CounterIncs: 4}}
				rigRun(t, r, false, 0, 1)
			}
		}
	}
}
