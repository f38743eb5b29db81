package trace_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/trace"
)

// run replays ops references per CPU of gen on a 2-CPU Architecture-2
// platform through the one build and run path.
func run(t *testing.T, cfg core.Config, gen func(int) trace.Generator, ops, think uint64) (*core.Result, *core.System) {
	t.Helper()
	sys, err := core.BuildStreams(cfg, gen, ops, think)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, sys
}

func TestStreamsCompleteAllOps(t *testing.T) {
	l := mem.DefaultLayout(2)
	for _, proto := range []coherence.Protocol{coherence.WTI, coherence.WBMESI} {
		res, _ := run(t, core.DefaultConfig(proto, mem.Arch2, 2), func(cpu int) trace.Generator {
			return trace.NewUniform(trace.UniformParams{
				Base: l.SharedBase, Size: 2048, StoreFrac: 0.3, Seed: int64(cpu) + 1,
			})
		}, 300, 1)
		if done := res.Instructions(); done != 600 {
			t.Fatalf("%v: completed %d ops, want 600", proto, done)
		}
		if res.Net.TotalBytes == 0 {
			t.Fatalf("%v: no traffic recorded", proto)
		}
	}
}

// TestSparseWritesMoveTwoPacketsPerOp pins that a stream machine has no
// interpreter: nothing fetches instructions, so k posted WTI writes on
// each of n CPUs are exactly k·n write-throughs and their k·n
// acknowledgements.
func TestSparseWritesMoveTwoPacketsPerOp(t *testing.T) {
	const n, k = 4, 2000
	l := mem.DefaultLayout(n)
	sys, err := core.BuildStreams(core.DefaultConfig(coherence.WTI, mem.Arch2, n), func(cpu int) trace.Generator {
		return trace.NewWriteStream(l.SharedBase+uint32(cpu)*0x40000, 0x40000, 32)
	}, k, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Net.Packets != 2*k*n || res.IFetches != 0 {
		t.Fatalf("%d packets, %d instruction fetches; want %d and 0", res.Net.Packets, res.IFetches, 2*k*n)
	}
}

// TestStreamsScheduledMatchNaive pins the stream CPUs' half of the wake
// contract: sleeping through think time and past the end of the stream
// (and letting the platform under them sleep and leap) changes no
// result — cycles, traffic, per-CPU counters — against the naive
// schedule that ticks everything every cycle.
func TestStreamsScheduledMatchNaive(t *testing.T) {
	l := mem.DefaultLayout(2)
	gens := []struct {
		name string
		gen  func(int) trace.Generator
	}{
		{"uniform", func(cpu int) trace.Generator {
			return trace.NewUniform(trace.UniformParams{Base: l.SharedBase, Size: 2048, StoreFrac: 0.4, Seed: int64(cpu) + 1})
		}},
		{"hotspot", func(cpu int) trace.Generator {
			return trace.NewHotSpot(trace.HotSpotParams{PrivateBase: l.PrivateSeg(cpu), PrivateSize: 4096,
				HotBase: l.SharedBase, HotSize: 32, HotFrac: 0.2, StoreFrac: 0.5, Seed: int64(cpu) + 1})
		}},
		{"rmw", func(cpu int) trace.Generator { return trace.NewPrivateRMW(l.PrivateSeg(cpu), 1024) }},
	}
	protos := []coherence.Protocol{coherence.WTI, coherence.WTU, coherence.WBMESI, coherence.MOESI}
	for _, g := range gens {
		for _, proto := range protos {
			for _, net := range []core.NoCKind{core.GMNNet, core.MeshNet, core.BusNet} {
				for _, think := range []uint64{0, 9} {
					name := fmt.Sprintf("%s/%v/%v/think %d", g.name, proto, net, think)
					cfg := core.DefaultConfig(proto, mem.Arch2, 2)
					cfg.NoC = net
					sched, ssys := run(t, cfg, g.gen, 400, think)
					cfg.DisableLeap = true
					naive, nsys := run(t, cfg, g.gen, 400, think)
					naive.Config.DisableLeap = false
					if !reflect.DeepEqual(naive, sched) {
						t.Errorf("%s: results differ:\nnaive:     %+v\nscheduled: %+v", name, naive, sched)
					}
					if nsys.Engine.SkippedTicks() != 0 || ssys.Engine.SkippedTicks() == 0 {
						t.Errorf("%s: skipped ticks naive %d, scheduled %d; want 0 and > 0",
							name, nsys.Engine.SkippedTicks(), ssys.Engine.SkippedTicks())
					}
					if think > 0 && ssys.Engine.Leaps() == 0 {
						t.Errorf("%s: think time not leaped", name)
					}
				}
			}
		}
	}
}

func TestBestWorstCaseShapes(t *testing.T) {
	// The defining asymmetry: write streaming favours WTI, private RMW
	// favours WB — in NoC traffic.
	l := mem.DefaultLayout(2)
	traffic := func(proto coherence.Protocol, gen func(int) trace.Generator) uint64 {
		res, _ := run(t, core.DefaultConfig(proto, mem.Arch2, 2), gen, 2000, 1)
		return res.Net.TotalBytes
	}

	sparse := func(cpu int) trace.Generator {
		return trace.NewWriteStream(l.SharedBase+uint32(cpu)*0x40000, 0x40000, 32)
	}
	if wti, wb := traffic(coherence.WTI, sparse), traffic(coherence.WBMESI, sparse); wti >= wb {
		t.Fatalf("sparse writes: WTI traffic %d >= WB %d", wti, wb)
	}

	// The dense regime flips: per-word overhead outweighs block moves.
	dense := func(cpu int) trace.Generator {
		return trace.NewWriteStream(l.SharedBase+uint32(cpu)*0x40000, 0x40000, 4)
	}
	if wti, wb := traffic(coherence.WTI, dense), traffic(coherence.WBMESI, dense); wb >= wti {
		t.Fatalf("dense writes: WB traffic %d >= WTI %d", wb, wti)
	}

	rmw := func(cpu int) trace.Generator {
		return trace.NewPrivateRMW(l.PrivateSeg(cpu), 1024)
	}
	if wti, wb := traffic(coherence.WTI, rmw), traffic(coherence.WBMESI, rmw); wb >= wti {
		t.Fatalf("private rmw: WB traffic %d >= WTI %d", wb, wti)
	}
}
