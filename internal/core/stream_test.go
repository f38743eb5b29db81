package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/coherence"
	"repro/internal/mem"
)

// uniformRefs draws words of [base, base+size) uniformly, each a store
// with probability storeFrac: a hot spot that never tosses its coin.
func uniformRefs(base, size uint32, storeFrac float64, seed int64) func() Ref {
	return hotSpotRefs(base, size, 0, 0, -1, storeFrac, seed)
}

// hotSpotRefs draws a word of [hot, hot+hotSize) with probability
// hotFrac and otherwise one of [priv, priv+privSize); a negative hotFrac
// skips the coin.
func hotSpotRefs(priv, privSize, hot, hotSize uint32, hotFrac, storeFrac float64, seed int64) func() Ref {
	rng := rand.New(rand.NewSource(seed))
	return func() Ref {
		base, size := priv, privSize
		if hotFrac >= 0 && rng.Float64() < hotFrac {
			base, size = hot, hotSize
		}
		addr := base + 4*uint32(rng.Intn(int(size/4)))
		return Ref{Store: rng.Float64() < storeFrac, Addr: addr, Data: rng.Uint32()}
	}
}

// rmwRefs loads and then stores each word of [base, base+size) in turn.
func rmwRefs(base, size uint32) func() Ref {
	i := uint32(0)
	return func() Ref {
		i++
		return Ref{Store: i%2 == 0, Addr: base + (i-1)/2*4%size, Data: i}
	}
}

// stridedStores stores a word every stride bytes of [base, base+size).
func stridedStores(base, size, stride uint32) func() Ref {
	pos := uint32(0)
	return func() Ref {
		pos += stride
		return Ref{Store: true, Addr: base + (pos-stride)%size}
	}
}

// runStreams replays ops references per CPU of gen on cfg's platform
// through the one build and run path.
func runStreams(t *testing.T, cfg Config, gen func(cpu int) func() Ref, ops, think uint64) (*Result, *System) {
	t.Helper()
	sys, err := BuildStreams(cfg, gen, ops, think)
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
		res, _ := runStreams(t, DefaultConfig(proto, mem.Arch2, 2), func(cpu int) func() Ref {
			return uniformRefs(l.SharedBase, 2048, 0.3, int64(cpu)+1)
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
	res, _ := runStreams(t, DefaultConfig(coherence.WTI, mem.Arch2, n), func(cpu int) func() Ref {
		return stridedStores(l.SharedBase+uint32(cpu)*0x40000, 0x40000, 32)
	}, k, 2)
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
		gen  func(int) func() Ref
	}{
		{"uniform", func(cpu int) func() Ref { return uniformRefs(l.SharedBase, 2048, 0.4, int64(cpu)+1) }},
		{"hotspot", func(cpu int) func() Ref {
			return hotSpotRefs(l.PrivateSeg(cpu), 4096, l.SharedBase, 32, 0.2, 0.5, int64(cpu)+1)
		}},
		{"rmw", func(cpu int) func() Ref { return rmwRefs(l.PrivateSeg(cpu), 1024) }},
	}
	protos := []coherence.Protocol{coherence.WTI, coherence.WTU, coherence.WBMESI, coherence.MOESI}
	for _, g := range gens {
		for _, proto := range protos {
			for _, net := range []NoCKind{GMNNet, MeshNet, BusNet} {
				for _, think := range []uint64{0, 9} {
					name := fmt.Sprintf("%s/%v/%v/think %d", g.name, proto, net, think)
					cfg := DefaultConfig(proto, mem.Arch2, 2)
					cfg.NoC = net
					sched, ssys := runStreams(t, cfg, g.gen, 400, think)
					cfg.DisableLeap = true
					naive, nsys := runStreams(t, cfg, g.gen, 400, think)
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
