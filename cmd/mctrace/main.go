// Command mctrace drives the memory hierarchy with synthetic reference
// streams instead of programs — the protocol stress bench. The machine
// is the one mcsim builds, with stream CPUs in place of the
// interpreters (core.BuildStreams).
//
// Usage:
//
//	mctrace [-pattern uniform|hotspot|sparse|dense|rmw] [-protocol wti|wtu|wb|moesi]
//	        [-cpus N] [-ops N] [-think N] [-store 0.3] [-hot 0.05]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	patternFlag := flag.String("pattern", "uniform", "stream: uniform, hotspot, sparse, dense or rmw")
	protoFlag := flag.String("protocol", "wti", "write policy: wti, wtu, wb or moesi")
	cpus := flag.Int("cpus", 8, "number of processors (1..64)")
	ops := flag.Uint64("ops", 10000, "operations per processor")
	think := flag.Uint64("think", 2, "cycles between completed operations")
	storeFrac := flag.Float64("store", 0.3, "store fraction, 0..1 (uniform/hotspot)")
	hotFrac := flag.Float64("hot", 0.05, "hot-block fraction, 0..1 (hotspot)")
	flag.Parse()
	if flag.NArg() > 0 {
		log.Fatalf("unexpected argument %q (all options are flags; see -h)", flag.Arg(0))
	}
	// Everything is checked before the platform is built from it.
	proto, err := coherence.ParseProtocol(*protoFlag)
	if err != nil {
		log.Fatal(err)
	}
	pattern, err := trace.FindPattern(*patternFlag)
	if err != nil {
		log.Fatal(err)
	}
	if *cpus < 1 || *cpus > 64 {
		log.Fatalf("bad CPU count %d (need 1..64)", *cpus)
	}
	fraction := func(name string, v float64) {
		if !(v >= 0 && v <= 1) { // also refuses NaN
			log.Fatalf("%s %v is not a fraction (need 0..1)", name, v)
		}
	}
	fraction("-store", *storeFrac)
	fraction("-hot", *hotFrac)

	l := mem.DefaultLayout(*cpus)
	mix := trace.Mix{Store: *storeFrac, Hot: *hotFrac}
	sys, err := core.BuildStreams(core.DefaultConfig(proto, mem.Arch2, *cpus),
		func(cpu int) trace.Generator { return pattern.Gen(l, cpu, mix) }, *ops, *think)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		log.Fatal(err)
	}
	var stall, done uint64
	var lat stats.Histogram
	for i := range res.Stream {
		c := &res.Stream[i]
		stall += c.StallCycles
		done += c.Ops
		lat.Merge(&c.Latency)
	}
	fmt.Printf("pattern=%s protocol=%v cpus=%d ops=%d\n", pattern.Name, proto, *cpus, done)
	fmt.Printf("cycles: %.3f Mcyc   traffic: %.3f MB (%d packets)\n",
		res.MegaCycles(), float64(res.TrafficBytes())/1e6, res.Net.Packets)
	fmt.Printf("stall cycles per op: %.2f   inject stalls: %d\n",
		stats.Ratio(float64(stall), float64(done)), res.Net.InjectStallCycles)
	fmt.Printf("op latency: %s\n", lat.String())
}
