package main

import (
	"slices"
	"time"
)

// The reference kernel: a fixed piece of host work of the simulator's
// kind — data-dependent branches, loads and stores in a small table,
// indirect calls — that no change to the simulator can touch.
//
// The benchmark's host is a small VM on a shared machine whose speed
// moves by a third for tens of seconds to minutes at a time (clock
// frequency and shared-core contention follow the neighbours' load).
// Taking each slice's fastest time over the reps removes interruptions,
// which only ever add time to single slices, but not that: on the
// driver's first check the quartiles of ten runs of the same code lay
// 30% apart. So every timed piece is followed by reference chunks, and
// its time is restated in reference-host time: multiplied by refChunk
// over what a chunk took just then. A host running at 70% of its speed
// runs simulator and kernel at 70%, and the quotient stays.
//
// Host-time metrics therefore read as on the reference host when it is
// quiet; host.speed_pct says how this host compared, and the whole-rep
// figures printed beside them are raw wall-clock.

const (
	// refIters is the length of one chunk: about 40 µs, 4% of a slice.
	refIters = 4096
	// refChunk is what one chunk takes on the reference host (2 vCPUs of
	// a Xeon at 2.1 GHz nominal, go1.24) when it is quiet: the fastest
	// of the chunks around a slice, as toReference takes it.
	refChunk = 41 * time.Microsecond
	// refWindow is how many chunks before and after a slice say how fast
	// the host was during it: 17 chunks in 17 ms. The fastest of them is
	// free of interruptions and still follows the host's speed.
	refWindow = 8
	// refBurst is the number of chunks run after a piece that is timed
	// on its own (build, verify).
	refBurst = 8
)

type refKernel struct {
	x     uint64
	table [1024]uint64
}

// ref is the one kernel; the benchmark runs on one goroutine. Its state
// carries over from chunk to chunk so that the branch pattern never
// repeats and no predictor learns it.
var ref = refKernel{x: 0x9E3779B97F4A7C15}

var refOps = [4]func(uint64) uint64{
	func(x uint64) uint64 { return x + 0x632BE59BD9B4E019 },
	func(x uint64) uint64 { return x ^ x>>29 },
	func(x uint64) uint64 { return x * 0xD6E8FEB86659FD93 },
	func(x uint64) uint64 { return x<<7 | x>>57 },
}

// chunk runs the kernel once and returns the time it took.
func (k *refKernel) chunk() time.Duration {
	t0 := time.Now()
	x := k.x
	for i := 0; i < refIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := &k.table[x&1023]
		switch x >> 62 {
		case 0:
			*v += x
		case 1:
			x += *v
		case 2:
			*v ^= x >> 3
		default:
			x = refOps[*v&3](x)
		}
	}
	k.x = x
	return time.Since(t0)
}

// hostSpeed runs a burst of chunks and returns this host's speed just
// now as a share of the reference host's: 0.7 if the fastest chunk of
// the burst took refChunk/0.7.
func (k *refKernel) hostSpeed() float64 {
	best := k.chunk()
	for i := 1; i < refBurst; i++ {
		best = min(best, k.chunk())
	}
	return float64(refChunk) / float64(best)
}

// scale restates a time measured at the given host speed in
// reference-host time.
func scale(d time.Duration, speed float64) time.Duration {
	return time.Duration(float64(d) * speed)
}

// toReference restates every slice's run time in reference-host time,
// taking the host's speed during a slice from the fastest chunk among
// those within refWindow slices of it. It returns the middle one of the
// speeds it applied.
func toReference(s []timedSlice) float64 {
	speeds := make([]float64, len(s))
	for i := range s {
		lo, hi := max(0, i-refWindow), min(len(s), i+refWindow+1)
		best := s[lo].ref
		for _, n := range s[lo+1 : hi] {
			best = min(best, n.ref)
		}
		speeds[i] = float64(refChunk) / float64(best)
		s[i].run = scale(s[i].run, speeds[i])
	}
	slices.Sort(speeds)
	return speeds[len(speeds)/2]
}
