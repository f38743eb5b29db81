// Tracestress: drive the memory hierarchy with synthetic reference
// streams (no programs) to expose each protocol's best and worst case:
// write-once streaming favours write-through, cache-resident private
// read-modify-write favours write-back — the best/worst-case analysis
// the paper lists as future work.
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
	n := flag.Int("cpus", 8, "number of processors (1..64)")
	ops := flag.Uint64("ops", 10000, "memory operations per processor")
	flag.Parse()

	l := mem.DefaultLayout(*n)
	mix := trace.Mix{Store: 0.3, Hot: 0.05}
	t := stats.NewTable(fmt.Sprintf("Synthetic streams, %d CPUs, %d ops each", *n, *ops),
		"pattern", "protocol", "Mcycles", "traffic MB", "stall cyc/op")
	for _, p := range trace.Patterns {
		for _, proto := range []coherence.Protocol{coherence.WTI, coherence.WBMESI} {
			sys, err := core.BuildStreams(core.DefaultConfig(proto, mem.Arch2, *n),
				func(cpu int) trace.Generator { return p.Gen(l, cpu, mix) }, *ops, 2)
			if err != nil {
				log.Fatal(err)
			}
			res, err := sys.Run()
			if err != nil {
				log.Fatal(err)
			}
			var stall, done uint64
			for _, c := range res.Stream {
				stall += c.StallCycles
				done += c.Ops
			}
			t.AddRow(p.Name+": "+p.Doc, proto.String(), res.MegaCycles(),
				float64(res.TrafficBytes())/1e6, stats.Ratio(float64(stall), float64(done)))
		}
	}
	fmt.Println(t.Render())
}
