package exp

// The random-machine differential rig: machines drawn at toy sizes over
// every axis a Run has, each run on the scheduled engine and on the naive
// reference schedule (every component ticked every cycle), which must
// agree on the whole Result, the final memory and, when an observer is
// attached, its latency report and sampled series. It is the net under
// every fast path of the schedule — sleeps, leaps, run-ahead bursts and
// spin sleeps — on machines no fixed matrix lists. The draw count is
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

// drawRun draws one machine: a program (counter, lu, ocean, water, on the
// runtime its architecture pairs with) or the prodcons stream, any
// protocol, architecture and network, 2 to 8 CPUs, direct-mapped or
// 2-way caches, a full-map or one-pointer directory, strict stores or
// cache-to-cache transfers where the protocol has them, and now and then
// a fault plan — at or below QuickScale.
func drawRun(rng *rand.Rand) Run {
	r := Run{
		Bench:       []Bench{Counter, LU, Ocean, Water, ProdCons}[rng.Intn(5)],
		Protocol:    coherence.Protocol(rng.Intn(len(coherence.Protocols))),
		Arch:        []mem.Arch{mem.Arch1, mem.Arch2}[rng.Intn(2)],
		NumCPUs:     []int{2, 3, 4, 8}[rng.Intn(4)],
		NoC:         core.NoCKind(rng.Intn(3)),
		Ways:        2 * rng.Intn(2),
		DirPointers: rng.Intn(2),
		Scale: Scale{OceanRows: 1 + rng.Intn(2), OceanIters: 1 + rng.Intn(2), WaterMols: 1 + rng.Intn(2),
			WaterSteps: 1 + rng.Intn(2), LURows: 1 + rng.Intn(2), CounterIncs: 1 + rng.Intn(8)},
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
}

// rigRun runs r on one schedule; interval > 0 attaches an observer
// sampling at that interval.
func rigRun(t *testing.T, r Run, naive bool, interval uint64) rigOutcome {
	t.Helper()
	cfg, err := r.Config()
	if err != nil {
		t.Fatal(err)
	}
	cfg.DisableLeap = naive
	cfg.MaxCycles = 5_000_000
	sys, check, err := Build(r, cfg, Scale{})
	if err != nil {
		t.Fatalf("%s: %v", r.Key(), err)
	}
	var rec *obs.Recorder
	if interval > 0 {
		rec = obs.New(obs.Config{SampleInterval: interval})
		sys.AttachObserver(rec)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatalf("%s (naive=%t, observed every %d): %v", r.Key(), naive, interval, err)
	}
	sys.FlushCaches()
	if check != nil {
		if err := check(sys.Space); err != nil {
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
		n, _ := c.Spun()
		out.spins += n
	}
	res.Config.DisableLeap = false // the one field the schedules may differ in
	return out
}

func TestRandomMachinesScheduledEqualsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(rigSeed))
	var spins uint64
	for i := 0; i < rigDraws; i++ {
		r := drawRun(rng)
		var interval uint64
		if rng.Intn(4) == 0 {
			interval = 1 + uint64(rng.Intn(200))
		}
		naive, sched := rigRun(t, r, true, interval), rigRun(t, r, false, interval)
		if !reflect.DeepEqual(naive.res, sched.res) {
			t.Fatalf("draw %d, replay %s (observed every %d): results differ:\nnaive     %+v\nscheduled %+v",
				i, r.Key(), interval, naive.res, sched.res)
		}
		if !reflect.DeepEqual(naive.space, sched.space) || naive.series != sched.series {
			t.Fatalf("draw %d, replay %s (observed every %d): final memory or sampled series differ", i, r.Key(), interval)
		}
		spins += sched.spins
	}
	t.Logf("%d machines, %d spin sleeps", rigDraws, spins)
	if spins == 0 {
		t.Fatal("no draw ever put a core into a spin sleep: the rig missed the fast path it guards")
	}
}
