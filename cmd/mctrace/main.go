// Command mctrace drives the memory hierarchy with synthetic reference
// streams instead of programs — the protocol stress bench.
//
// Usage:
//
//	mctrace [-pattern uniform|hotspot|sparse|dense|rmw] [-protocol wti|wtu|wb]
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
	pattern := flag.String("pattern", "uniform", "stream: uniform, hotspot, sparse, dense or rmw")
	protoFlag := flag.String("protocol", "wti", "write policy: wti, wtu or wb")
	cpus := flag.Int("cpus", 8, "number of processors")
	ops := flag.Uint64("ops", 10000, "operations per processor")
	think := flag.Int("think", 2, "cycles between completed operations")
	storeFrac := flag.Float64("store", 0.3, "store fraction (uniform/hotspot)")
	hotFrac := flag.Float64("hot", 0.05, "hot-word fraction (hotspot)")
	flag.Parse()
	if flag.NArg() > 0 {
		log.Fatalf("unexpected argument %q (all options are flags; see -h)", flag.Arg(0))
	}

	var proto coherence.Protocol
	switch *protoFlag {
	case "wti":
		proto = coherence.WTI
	case "wtu":
		proto = coherence.WTU
	case "wb":
		proto = coherence.WBMESI
	default:
		log.Fatalf("unknown protocol %q", *protoFlag)
	}

	l := mem.DefaultLayout(*cpus)
	gen := func(cpu int) trace.Generator {
		switch *pattern {
		case "uniform":
			return trace.NewUniform(trace.UniformParams{
				Base: l.SharedBase, Size: 64 * 1024,
				StoreFrac: *storeFrac, Seed: int64(cpu) + 1,
			})
		case "hotspot":
			return trace.NewHotSpot(trace.HotSpotParams{
				PrivateBase: l.PrivateSeg(cpu), PrivateSize: 8192,
				HotBase: l.SharedBase, HotSize: 32,
				HotFrac: *hotFrac, StoreFrac: *storeFrac, Seed: int64(cpu) + 1,
			})
		case "sparse":
			return trace.NewWriteStream(l.SharedBase+uint32(cpu)*0x40000, 0x40000, 32)
		case "dense":
			return trace.NewWriteStream(l.SharedBase+uint32(cpu)*0x40000, 0x40000, 4)
		case "rmw":
			return trace.NewPrivateRMW(l.PrivateSeg(cpu), 2048)
		default:
			log.Fatalf("unknown pattern %q", *pattern)
			return nil
		}
	}

	h, err := trace.NewHarness(core.DefaultConfig(proto, mem.Arch2, *cpus), gen, *ops, *think)
	if err != nil {
		log.Fatal(err)
	}
	res, err := h.Run(0)
	if err != nil {
		log.Fatal(err)
	}
	var stall, done uint64
	var lat stats.Histogram
	for i := range res.CPUs {
		c := &res.CPUs[i]
		stall += c.StallCycles
		done += c.Ops
		lat.Merge(&c.Latency)
	}
	fmt.Printf("pattern=%s protocol=%v cpus=%d ops=%d\n", *pattern, proto, *cpus, done)
	fmt.Printf("cycles: %.3f Mcyc   traffic: %.3f MB (%d packets)\n",
		stats.Mega(res.Cycles), float64(res.Net.TotalBytes)/1e6, res.Net.Packets)
	fmt.Printf("stall cycles per op: %.2f   inject stalls: %d\n",
		stats.Ratio(float64(stall), float64(done)), res.Net.InjectStallCycles)
	fmt.Printf("op latency: %s\n", lat.String())
}
