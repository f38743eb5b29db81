// Package resource records per-run process resource usage — Go heap,
// GC activity, goroutine count and (on linux) resident set size — as a
// wall-clock time series plus a peak/final/delta summary.
//
// It is the *off-engine* half of the observability layer: where
// internal/obs samples against the simulated cycle clock from inside
// the engine loop, this package samples the host process on a real
// time.Ticker from its own goroutine, entirely outside the
// deterministic cycle path. A sampler therefore cannot perturb
// simulation results — it never touches engine state, and the engine
// never sees host time — a property pinned by
// TestResourceSamplingDoesNotPerturbRun in internal/exp.
//
// The time-series shape (RSS/Alloc/Sys/NumGC points on a wall-clock
// axis) follows the memory-stat telemetry of long-running Go services;
// the summary block is what gets merged into Result reports
// (exp.Report, `mcsim -json -resources`) so a run records where memory
// went, not just how long it took.
package resource

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Sample is one point of the resource time series.
type Sample struct {
	// ElapsedMs is milliseconds since Start, taken from Go's monotonic
	// clock: samples are strictly ordered even across NTP slews.
	ElapsedMs float64 `json:"elapsed_ms"`
	// HeapAlloc is runtime.MemStats.HeapAlloc: bytes of live heap.
	HeapAlloc uint64 `json:"heap_alloc"`
	// Sys is runtime.MemStats.Sys: total bytes obtained from the OS.
	Sys uint64 `json:"sys"`
	// NumGC is the cumulative collection count.
	NumGC uint32 `json:"num_gc"`
	// PauseTotalNs is the cumulative stop-the-world pause time.
	PauseTotalNs uint64 `json:"pause_total_ns"`
	// Goroutines is runtime.NumGoroutine at the sampling instant.
	Goroutines int `json:"goroutines"`
	// RSS is the resident set size in bytes from /proc/self/statm
	// (0 on platforms without it).
	RSS uint64 `json:"rss"`
}

// Summary condenses a sample series into the peak/final/delta block
// that is merged into run reports and BENCH files. Delta fields are
// final minus first sample, so a run that frees what it allocates
// reports a small delta under a large peak.
type Summary struct {
	Samples    int     `json:"samples"`
	IntervalMs float64 `json:"interval_ms"`
	DurationMs float64 `json:"duration_ms"`

	HeapAllocPeak  uint64 `json:"heap_alloc_peak"`
	HeapAllocFinal uint64 `json:"heap_alloc_final"`
	HeapAllocDelta int64  `json:"heap_alloc_delta"`
	SysPeak        uint64 `json:"sys_peak"`
	SysFinal       uint64 `json:"sys_final"`

	// GCCount and GCPauseMs are deltas over the run, not process
	// lifetime totals, so back-to-back runs in one process compare.
	GCCount   uint32  `json:"gc_count"`
	GCPauseMs float64 `json:"gc_pause_ms"`

	GoroutinePeak int `json:"goroutine_peak"`

	RSSPeak  uint64 `json:"rss_peak,omitempty"`
	RSSFinal uint64 `json:"rss_final,omitempty"`
	RSSDelta int64  `json:"rss_delta,omitempty"`
}

// Sampler records the process resource series on a wall-clock ticker.
// Construct with Start, finish with Stop; a nil *Sampler is the
// disabled state (all methods no-op), mirroring *obs.Recorder.
type Sampler struct {
	interval time.Duration
	start    time.Time

	mu      sync.Mutex
	samples []Sample

	stop chan struct{}
	done chan struct{}
}

// DefaultInterval is the sampling period used when Start is given a
// non-positive interval: coarse enough to stay invisible next to the
// engine loop, fine enough to catch GC-driven heap sawtooth on runs
// lasting a second or more.
const DefaultInterval = 25 * time.Millisecond

// Start begins sampling every interval (DefaultInterval when
// interval <= 0) on a background goroutine. The first sample is taken
// synchronously, so even a run shorter than one interval yields a
// first/final pair.
func Start(interval time.Duration) *Sampler {
	if interval <= 0 {
		interval = DefaultInterval
	}
	s := &Sampler{
		interval: interval,
		start:    time.Now(),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	s.record()
	go s.loop()
	return s
}

func (s *Sampler) loop() {
	defer close(s.done)
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.record()
		case <-s.stop:
			return
		}
	}
}

// record appends one sample at the current instant.
func (s *Sampler) record() {
	sm := sampleNow(s.start)
	s.mu.Lock()
	s.samples = append(s.samples, sm)
	s.mu.Unlock()
}

// sampleNow reads the runtime and the OS at one instant.
func sampleNow(start time.Time) Sample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return Sample{
		ElapsedMs:    float64(time.Since(start).Nanoseconds()) / 1e6,
		HeapAlloc:    ms.HeapAlloc,
		Sys:          ms.Sys,
		NumGC:        ms.NumGC,
		PauseTotalNs: ms.PauseTotalNs,
		Goroutines:   runtime.NumGoroutine(),
		RSS:          readRSS(),
	}
}

// Stop takes a final sample, terminates the background goroutine, and
// returns the run summary. Safe on a nil sampler (zero Summary) and
// idempotent only in the sense that it must be called exactly once per
// Start.
func (s *Sampler) Stop() Summary {
	if s == nil {
		return Summary{}
	}
	close(s.stop)
	<-s.done
	s.record()
	sum := Summarize(s.Samples())
	sum.IntervalMs = float64(s.interval.Nanoseconds()) / 1e6
	return sum
}

// Samples returns a copy of the series recorded so far.
func (s *Sampler) Samples() []Sample {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Sample, len(s.samples))
	copy(out, s.samples)
	return out
}

// Summarize computes the peak/final/delta block of a sample series.
// A nil or empty series yields the zero Summary (Samples == 0), which
// report writers treat as "sampling was off".
func Summarize(samples []Sample) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	first, last := samples[0], samples[len(samples)-1]
	sum := Summary{
		Samples:        len(samples),
		DurationMs:     last.ElapsedMs - first.ElapsedMs,
		HeapAllocFinal: last.HeapAlloc,
		HeapAllocDelta: int64(last.HeapAlloc) - int64(first.HeapAlloc),
		SysFinal:       last.Sys,
		GCCount:        last.NumGC - first.NumGC,
		GCPauseMs:      float64(last.PauseTotalNs-first.PauseTotalNs) / 1e6,
		RSSFinal:       last.RSS,
		RSSDelta:       int64(last.RSS) - int64(first.RSS),
	}
	for _, sm := range samples {
		if sm.HeapAlloc > sum.HeapAllocPeak {
			sum.HeapAllocPeak = sm.HeapAlloc
		}
		if sm.Sys > sum.SysPeak {
			sum.SysPeak = sm.Sys
		}
		if sm.Goroutines > sum.GoroutinePeak {
			sum.GoroutinePeak = sm.Goroutines
		}
		if sm.RSS > sum.RSSPeak {
			sum.RSSPeak = sm.RSS
		}
	}
	return sum
}

// String renders the summary as one human-readable block for the CLI
// tools' stderr/stdout reports. MiB units: the values it reports are
// process-level, where bytes are noise.
func (s Summary) String() string {
	if s.Samples == 0 {
		return "resources: not sampled"
	}
	mib := func(b uint64) float64 { return float64(b) / (1 << 20) }
	out := fmt.Sprintf(
		"resources: %d samples over %.0f ms\n"+
			"  heap alloc  peak %.1f MiB  final %.1f MiB  delta %+.1f MiB\n"+
			"  go sys      peak %.1f MiB  final %.1f MiB\n"+
			"  gc          %d collections, %.2f ms paused\n"+
			"  goroutines  peak %d",
		s.Samples, s.DurationMs,
		mib(s.HeapAllocPeak), mib(s.HeapAllocFinal), float64(s.HeapAllocDelta)/(1<<20),
		mib(s.SysPeak), mib(s.SysFinal),
		s.GCCount, s.GCPauseMs,
		s.GoroutinePeak)
	if s.RSSPeak > 0 {
		out += fmt.Sprintf("\n  rss         peak %.1f MiB  final %.1f MiB  delta %+.1f MiB",
			mib(s.RSSPeak), mib(s.RSSFinal), float64(s.RSSDelta)/(1<<20))
	}
	return out
}
