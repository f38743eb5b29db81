package resource

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestSamplerMonotonicTimestamps pins the clock contract: elapsed
// times come from Go's monotonic clock, so the series is nondecreasing
// no matter what the wall clock does.
func TestSamplerMonotonicTimestamps(t *testing.T) {
	s := Start(time.Millisecond)
	// Enough work that a few ticks fire.
	sink := make([]byte, 0, 1<<16)
	deadline := time.Now().Add(20 * time.Millisecond)
	for time.Now().Before(deadline) {
		sink = append(sink, make([]byte, 1024)...)
	}
	_ = sink
	sum := s.Stop()

	samples := s.Samples()
	if len(samples) < 2 {
		t.Fatalf("got %d samples, want at least first+final", len(samples))
	}
	if sum.Samples != len(samples) {
		t.Errorf("summary.Samples = %d, series has %d", sum.Samples, len(samples))
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].ElapsedMs < samples[i-1].ElapsedMs {
			t.Fatalf("sample %d: elapsed %.3f < previous %.3f",
				i, samples[i].ElapsedMs, samples[i-1].ElapsedMs)
		}
	}
	if samples[0].HeapAlloc == 0 || samples[0].Sys == 0 {
		t.Errorf("first sample has zero heap/sys: %+v", samples[0])
	}
	if sum.GoroutinePeak < 2 {
		// At minimum the test goroutine and the sampler loop itself.
		t.Errorf("goroutine peak = %d, want >= 2", sum.GoroutinePeak)
	}
}

// TestRSS asserts the /proc reader works where it should.
func TestRSS(t *testing.T) {
	rss := readRSS()
	if rss == 0 {
		t.Skip("RSS not measurable on this platform")
	}
	// A Go test binary is comfortably above 1 MiB resident.
	if rss < 1<<20 {
		t.Errorf("rss = %d bytes, implausibly small", rss)
	}
}

// TestCSVRoundTrip pins the file format: the exact bytes WriteCSV
// produces for a synthetic series.
func TestCSVRoundTrip(t *testing.T) {
	in := []Sample{
		{ElapsedMs: 0, HeapAlloc: 100, Sys: 2000, NumGC: 1, PauseTotalNs: 5000, Goroutines: 3, RSS: 4096},
		{ElapsedMs: 25.125, HeapAlloc: 900, Sys: 2100, NumGC: 2, PauseTotalNs: 9000, Goroutines: 4, RSS: 8192},
		{ElapsedMs: 50.5, HeapAlloc: 300, Sys: 2100, NumGC: 3, PauseTotalNs: 12000, Goroutines: 3, RSS: 8192},
	}
	const want = "elapsed_ms,heap_alloc,sys,num_gc,pause_total_ns,goroutines,rss\n" +
		"0.000,100,2000,1,5000,3,4096\n" +
		"25.125,900,2100,2,9000,4,8192\n" +
		"50.500,300,2100,3,12000,3,8192\n"
	var buf bytes.Buffer
	if err := WriteCSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want {
		t.Errorf("WriteCSV wrote\n%s\nwant\n%s", buf.String(), want)
	}
}

// TestSummarizeZeroSamples: a zero-length series must summarize to the
// zero Summary, the "sampling off" marker, without panicking.
func TestSummarizeZeroSamples(t *testing.T) {
	if got := Summarize(nil); got != (Summary{}) {
		t.Errorf("Summarize(nil) = %+v, want zero", got)
	}
	if got := Summarize([]Sample{}); got != (Summary{}) {
		t.Errorf("Summarize(empty) = %+v, want zero", got)
	}
	if s := (Summary{}); s.String() != "resources: not sampled" {
		t.Errorf("zero summary renders %q", s.String())
	}
}

// TestSummarizePeakFinalDelta pins the summary arithmetic, including a
// shrinking final (negative delta under a higher peak).
func TestSummarizePeakFinalDelta(t *testing.T) {
	sum := Summarize([]Sample{
		{ElapsedMs: 10, HeapAlloc: 500, Sys: 1000, NumGC: 2, PauseTotalNs: 1_000_000, Goroutines: 2, RSS: 100},
		{ElapsedMs: 20, HeapAlloc: 900, Sys: 1500, NumGC: 3, PauseTotalNs: 2_500_000, Goroutines: 9, RSS: 300},
		{ElapsedMs: 35, HeapAlloc: 400, Sys: 1500, NumGC: 5, PauseTotalNs: 4_000_000, Goroutines: 3, RSS: 250},
	})
	want := Summary{
		Samples: 3, DurationMs: 25,
		HeapAllocPeak: 900, HeapAllocFinal: 400, HeapAllocDelta: -100,
		SysPeak: 1500, SysFinal: 1500,
		GCCount: 3, GCPauseMs: 3,
		GoroutinePeak: 9,
		RSSPeak:       300, RSSFinal: 250, RSSDelta: 150,
	}
	if sum != want {
		t.Errorf("Summarize:\n got %+v\nwant %+v", sum, want)
	}
}

// TestNilSampler: the disabled state must be inert, like *obs.Recorder.
func TestNilSampler(t *testing.T) {
	var s *Sampler
	if got := s.Stop(); got != (Summary{}) {
		t.Errorf("nil Stop() = %+v", got)
	}
	if got := s.Samples(); got != nil {
		t.Errorf("nil Samples() = %v", got)
	}
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Errorf("nil WriteCSV: %v", err)
	}
	if strings.TrimSpace(buf.String()) != csvHeader {
		t.Errorf("nil WriteCSV wrote %q", buf.String())
	}
}

// TestSamplerCSVFromLiveRun: a real sampler's CSV has the header and
// one row for each sample it reports via Samples.
func TestSamplerCSVFromLiveRun(t *testing.T) {
	s := Start(time.Millisecond)
	time.Sleep(5 * time.Millisecond)
	s.Stop()
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if rows := strings.Count(buf.String(), "\n") - 1; rows != len(s.Samples()) {
		t.Fatalf("CSV has %d rows, sampler has %d", rows, len(s.Samples()))
	}
}
