// Command mcsim runs one simulation point and prints its full
// statistics: the single-run counterpart of cmd/sweep.
//
// Usage:
//
//	mcsim [-bench ocean|water|counter|sparse|rmw|prodcons|uniform|hotspot|dense]
//	      [-rows N] [-iters N] [-mols N] [-steps N] [-incs N]
//	      [-protocol wti|wtu|wb|moesi] [-arch 1|2] [-cpus N] [-noc gmn|mesh|bus]
//	      [-strict] [-c2c] [-ways N] [-dirptrs K]
//	      [-v | -json] [-check N] [-noleap] [-fault drop=1e-4,delay=1e-3:8,seed=42]
//	      [-obs-trace FILE] [-obs-interval K] [-obs-csv FILE]
//	      [-cpuprofile FILE] [-memprofile FILE]
//
// -bench names any exp.Bench: a program the SR32 interpreters run, or a
// stream bench whose CPUs replay synthetic references (no host
// reference to check). The program-size flags each size one program
// (-rows and -iters ocean, -mols and -steps water, -incs counter); one
// given with a bench it does not size is refused.
//
// The profiling flags are the pprof hooks shared with sweep
// (internal/obs/prof); they observe the process and cannot change
// simulation results. For a run's memory, see go run ./benchmark.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/obs/prof"
	"repro/internal/stats"
)

func main() {
	bench := flag.String("bench", "ocean", "workload: a program (ocean, water, counter) or a stream (sparse, rmw, prodcons, uniform, hotspot, dense)")
	protoFlag := flag.String("protocol", "wti", "write policy: wti, wtu, wb or moesi")
	archFlag := flag.Int("arch", 2, "architecture: 1 (centralized, SMP) or 2 (distributed, DS)")
	cpus := flag.Int("cpus", 8, "number of processors (1..64)")
	nocFlag := flag.String("noc", "gmn", "interconnect: gmn, mesh or bus")
	strict := flag.Bool("strict", false, "strict sequentially-consistent stores (WTI)")
	verbose := flag.Bool("v", false, "per-CPU and per-bank statistics")
	jsonOut := flag.Bool("json", false, "emit the result as JSON instead of text")
	checkEvery := flag.Uint64("check", 0, "run the coherence invariant checker every N cycles (0 = off)")
	obsTrace := flag.String("obs-trace", "", "write a Chrome/Perfetto trace-event JSON file")
	obsInterval := flag.Uint64("obs-interval", 0, "sample system metrics every K cycles")
	obsCSV := flag.String("obs-csv", "", "write interval samples as CSV (needs -obs-interval)")
	dirPtrs := flag.Int("dirptrs", 0, "limited-pointer directory: 0 = full map, k = Dir_k_B")
	ways := flag.Int("ways", 1, "cache associativity (Table 2: 1 = direct-mapped)")
	c2c := flag.Bool("c2c", false, "MESI cache-to-cache transfers")
	// Each program-size flag sizes one program; sizedBy records which.
	var size exp.Scale
	def := exp.DefaultScale()
	sizedBy := map[string]exp.Bench{}
	sizeFlag := func(p *int, name string, b exp.Bench, value int, usage string) {
		flag.IntVar(p, name, value, string(b)+": "+usage)
		sizedBy[name] = b
	}
	sizeFlag(&size.OceanRows, "rows", exp.Ocean, def.OceanRows, "rows per processor")
	sizeFlag(&size.OceanIters, "iters", exp.Ocean, def.OceanIters, "sweeps")
	sizeFlag(&size.WaterMols, "mols", exp.Water, def.WaterMols, "molecules per processor")
	sizeFlag(&size.WaterSteps, "steps", exp.Water, def.WaterSteps, "time steps")
	sizeFlag(&size.CounterIncs, "incs", exp.Counter, def.CounterIncs, "increments per thread")
	faultSpec := flag.String("fault", "", "seeded NoC fault campaign, e.g. drop=1e-4,delay=1e-3:8,seed=42 (empty = no faults)")
	noleap := flag.Bool("noleap", false, "the naive reference schedule: tick every component on every cycle, skip and leap nothing (results are byte-identical either way, under every -fault plan; for timing comparisons)")
	profCfg := prof.RegisterFlags()
	flag.Parse()
	if err := prof.RejectPositional(flag.Args()); err != nil {
		log.Fatal(err)
	}
	stopProf, err := profCfg.Start()
	if err != nil {
		log.Fatal(err)
	}

	proto, err := coherence.ParseProtocol(*protoFlag)
	if err != nil {
		log.Fatal(err)
	}
	arch, ok := map[int]mem.Arch{1: mem.Arch1, 2: mem.Arch2}[*archFlag]
	if !ok {
		log.Fatalf("arch must be 1 or 2")
	}
	nocKind, ok := map[string]core.NoCKind{"gmn": core.GMNNet, "mesh": core.MeshNet, "bus": core.BusNet}[*nocFlag]
	if !ok {
		log.Fatalf("unknown noc %q", *nocFlag)
	}
	// The workload generators size their code for the CPU count, so it
	// is checked before anything is built from it.
	if *cpus < 1 || *cpus > 64 {
		log.Fatalf("bad CPU count %d (need 1..64)", *cpus)
	}

	if *verbose && *jsonOut {
		log.Fatal("-v prints tables; it does nothing with -json")
	}
	flag.Visit(func(f *flag.Flag) {
		if b, ok := sizedBy[f.Name]; ok && b != exp.Bench(*bench) {
			log.Fatalf("-%s sizes %s; it does nothing with -bench %s", f.Name, b, *bench)
		}
	})
	// Run spells the default associativity 0, so a default run's key
	// and errors read like the figure grid's point, not ".../ways=1".
	if *ways == 1 {
		*ways = 0
	}

	// The flags name one point of the experiment plane; what Run
	// deliberately lacks is set on its configuration below.
	run := exp.Run{
		Bench: exp.Bench(*bench), Protocol: proto, Arch: arch, NumCPUs: *cpus,
		NoC: nocKind, StrictSC: *strict, C2C: *c2c, Ways: *ways, DirPointers: *dirPtrs,
		Fault: *faultSpec,
	}
	cfg, err := run.Config()
	if err != nil {
		log.Fatal(err)
	}
	cfg.DisableLeap = *noleap
	sys, hostCheck, err := exp.Build(run, cfg, size)
	if err != nil {
		log.Fatal(err)
	}
	if *checkEvery > 0 {
		sys.EnableRuntimeChecks(*checkEvery)
	}
	if *obsCSV != "" && *obsInterval == 0 {
		log.Fatal("-obs-csv requires -obs-interval")
	}
	// Open output files before the (possibly long) run so a bad path
	// fails immediately instead of after the simulation finishes.
	var rec *obs.Recorder
	var traceFile, csvFile *os.File
	if *obsTrace != "" {
		if traceFile, err = os.Create(*obsTrace); err != nil {
			log.Fatal(err)
		}
	}
	if *obsCSV != "" {
		if csvFile, err = os.Create(*obsCSV); err != nil {
			log.Fatal(err)
		}
	}
	if *obsTrace != "" || *obsInterval > 0 {
		rec = obs.New(obs.Config{Trace: *obsTrace != "", SampleInterval: *obsInterval})
		sys.AttachObserver(rec)
	}
	res, err := sys.Run()
	if err != nil {
		log.Fatal(err)
	}
	if traceFile != nil {
		if err := errors.Join(rec.WriteTrace(traceFile), traceFile.Close()); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "obs: %d trace events written to %s (%d dropped)\n",
			rec.TraceEvents(), *obsTrace, rec.TraceDropped())
	}
	if csvFile != nil {
		if err := errors.Join(rec.Sampler().WriteCSV(csvFile), csvFile.Close()); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "obs: %d samples written to %s\n",
			rec.Sampler().Samples(), *obsCSV)
	}
	if *checkEvery > 0 {
		// On the drained final state the runtime checker skips no
		// block and exempts no byte; run it once there.
		if err := sys.CheckCoherence(); err != nil {
			fmt.Fprintln(os.Stderr, "COHERENCE CHECK FAILED:", err)
			os.Exit(1)
		}
	}
	sys.FlushCaches()
	check := "no host reference"
	if hostCheck != nil {
		if err := hostCheck(sys.Space); err != nil {
			fmt.Fprintln(os.Stderr, "VERIFICATION FAILED:", err)
			os.Exit(1)
		}
		check = "verified against host reference"
	}

	if *jsonOut {
		if err := res.WriteJSON(os.Stdout); err != nil {
			log.Fatal(err)
		}
		if err := stopProf(); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Println(res.Summary())
	fmt.Printf("result check: %s\n", check)
	fmt.Printf("instruction cache: %d fetches, %d misses\n", res.IFetches, res.IMisses)
	fmt.Printf("NoC: %d packets, %d flits, inject stalls %d\n",
		res.Net.Packets, res.Net.TotalFlits, res.Net.InjectStallCycles)
	// Host-side diagnostics, not part of the deterministic result: how
	// much of the schedule the wake contract kept off the host, whole
	// cycles first, then ticks per layer, then how many instructions the
	// cores retired ahead of the clock (EXPERIMENTS.md has the worked
	// example).
	if eng := sys.Engine; eng.SkippedTicks() > 0 && res.Cycles > 0 {
		leaped := eng.LeapedCycles()
		var skipped string
		for _, c := range eng.TickCounts() {
			skipped += fmt.Sprintf(", %s %.1f%%", c.Name, 100*float64(c.Skipped)/float64(c.Executed+c.Skipped))
		}
		var ahead, bursts, sleeps, slept uint64
		for _, c := range sys.CPUs {
			a, b := c.Ahead()
			s, n, _ := c.Spun()
			ahead, bursts, sleeps, slept = ahead+a, bursts+b, sleeps+s, slept+n
		}
		fmt.Fprintf(os.Stderr, "engine: %d leaps skipped %d of %d cycles (%.1f%%); ticks skipped: %s; run ahead: %d of %d instr in %d bursts, %d spin sleeps of %d cycles\n",
			eng.Leaps(), leaped, eng.Now(), 100*float64(leaped)/float64(eng.Now()),
			skipped[2:], ahead, res.Instructions(), bursts, sleeps, slept)
	}

	if res.Latency != nil {
		fmt.Println("\nrequest latencies (cycles):")
		fmt.Print(res.Latency.String())
	}
	if *verbose {
		// Row i is CPU i, data cache i, bank i.
		fmt.Println(stats.CounterTable("per-CPU", res.CPU).Render())
		fmt.Println(stats.CounterTable("per-dcache", res.DCache).Render())
		fmt.Println(stats.CounterTable("per-bank", res.Mem).Render())
	}
	if err := stopProf(); err != nil {
		log.Fatal(err)
	}
}
