package obs

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestNilRecorderIsInert: every method must be callable on a nil
// recorder — this is the zero-overhead-when-disabled contract.
func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	if r.Tracing() || r.Sampling() {
		t.Fatal("nil recorder reports itself enabled")
	}
	r.Machine(1, 1)
	r.Span(1, 0, "s", 0, 10, 0)
	r.Instant(1, 0, "i", 5, 0)
	r.Span(1, TidLane, "l", 0, 10, 0)
	r.Done(1, TidLane, LatWriteDrain, 0, 10, 0)
	r.Lat(LatReadMiss, 42)
	r.Sample(100)
	if r.LatencyReport() != nil {
		t.Fatal("nil recorder produced a latency report")
	}
	if r.Sampler() != nil || r.SampleInterval() != 0 {
		t.Fatal("nil recorder has a sampler")
	}
	if r.TraceEvents() != 0 || r.TraceDropped() != 0 {
		t.Fatal("nil recorder has trace state")
	}
}

func TestTraceJSONLoads(t *testing.T) {
	r := New(Config{Trace: true})
	r.Machine(1, 2)
	r.Span(CPUPid(0), TidStall, "data stall", 10, 60, 0x1000)
	r.Instant(PortPid(0), 0, "ReqRead", 12, 0x1000)
	r.Span(DirPid(1), TidLane, "ReqWriteThrough", 20, 70, 0x2000)
	r.Span(DirPid(1), TidLane, "ReqRead", 25, 80, 0x2040)

	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	var names []string
	for _, e := range doc.TraceEvents {
		names = append(names, e["name"].(string))
	}
	joined := strings.Join(names, " ")
	for _, want := range []string{"process_name", "thread_name", "data stall",
		"ReqRead", "ReqWriteThrough"} {
		if !strings.Contains(joined, want) {
			t.Errorf("trace missing event %q", want)
		}
	}
	// The two overlapping directory spans must land on distinct lanes.
	lanes := map[float64]bool{}
	for _, e := range doc.TraceEvents {
		if e["name"] == "ReqWriteThrough" || e["name"] == "ReqRead" {
			if pid, _ := e["pid"].(float64); pid == float64(DirPid(1)) {
				lanes[e["tid"].(float64)] = true
			}
		}
	}
	if len(lanes) != 2 {
		t.Errorf("overlapping spans share a lane: %v", lanes)
	}
}

// TestTraceOrderIgnoresTickInterleaving pins the buffer's canonical
// order: whether the engine runs every core before any cache (as it
// used to) or each core right before its own caches and port (as it
// does now), the file is the same — within a cycle, the cores' stall
// rows first, then the rest, each in recording order.
func TestTraceOrderIgnoresTickInterleaving(t *testing.T) {
	core := func(r *Recorder, i int, now uint64) {
		r.Span(CPUPid(i), TidStall, "data stall", now-3, now, 0x40)
	}
	port := func(r *Recorder, i int, now uint64) {
		r.Span(CPUPid(i), TidDCache, "read miss", now-9, now, 0x80)
		r.Instant(PortPid(i), 0, "ReqRead", now, 0x80)
	}
	grouped, clustered := New(Config{Trace: true}), New(Config{Trace: true})
	for now := uint64(10); now < 13; now++ {
		core(grouped, 0, now)
		core(grouped, 1, now)
		port(grouped, 0, now)
		port(grouped, 1, now)

		core(clustered, 0, now)
		port(clustered, 0, now)
		core(clustered, 1, now)
		port(clustered, 1, now)
	}
	var a, b bytes.Buffer
	if err := grouped.WriteTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := clustered.WriteTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("trace depends on the tick interleaving:\ngrouped:\n%s\nclustered:\n%s", a.String(), b.String())
	}
}

// TestLanePlacement records random overlapping spans of three track
// groups as they close (in end order) and checks where TidLane put
// them: within one group no two spans on a lane overlap, and every
// lane below a span's own is taken by some span overlapping it.
func TestLanePlacement(t *testing.T) {
	type span struct {
		pid        int
		begin, end uint64
	}
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spans := make([]span, 200)
		for i := range spans {
			b := uint64(rng.Intn(1000))
			spans[i] = span{DirPid(rng.Intn(3)), b, b + 1 + uint64(rng.Intn(60))}
		}
		sort.SliceStable(spans, func(i, j int) bool { return spans[i].end < spans[j].end })
		r := New(Config{Trace: true})
		for _, s := range spans {
			r.Span(s.pid, TidLane, "s", s.begin, s.end, 0)
		}
		ev := r.tb.events
		overlap := func(a, b *event) bool { return a.ts < b.ts+b.dur && b.ts < a.ts+a.dur }
		for i := range ev {
			a := &ev[i]
			if a.tid < TidLane {
				t.Fatalf("seed %d: span %d on row %d, below the lanes", seed, i, a.tid)
			}
			taken := map[int32]bool{}
			for j := range ev {
				b := &ev[j]
				if j == i || b.pid != a.pid || !overlap(a, b) {
					continue
				}
				if b.tid == a.tid {
					t.Fatalf("seed %d: spans [%d,%d) and [%d,%d) of pid %d share lane %d",
						seed, a.ts, a.ts+a.dur, b.ts, b.ts+b.dur, a.pid, a.tid)
				}
				taken[b.tid] = true
			}
			for l := int32(TidLane); l < a.tid; l++ {
				if !taken[l] {
					t.Fatalf("seed %d: span [%d,%d) of pid %d on lane %d, but lane %d is free over it",
						seed, a.ts, a.ts+a.dur, a.pid, a.tid, l)
				}
			}
		}
	}
}

func TestTraceEventCap(t *testing.T) {
	r := New(Config{Trace: true})
	r.tb.max = 3
	for i := 0; i < 10; i++ {
		r.Instant(1, 0, "e", uint64(i), 0)
	}
	if got := r.TraceEvents(); got != 3 {
		t.Fatalf("buffered %d events, want 3", got)
	}
	if got := r.TraceDropped(); got != 7 {
		t.Fatalf("dropped %d events, want 7", got)
	}
}

// TestSamplerCSVAndSeries: the CSV is the sampler's text form, one
// column per series. Each row holds its cycle, the gauge and the delta
// probe's increase since the row before.
func TestSamplerCSVAndSeries(t *testing.T) {
	r := New(Config{SampleInterval: 100})
	s := r.Sampler()
	var cum uint64
	s.AddProbe("occ", func(now uint64) float64 { return float64(now) / 100 })
	s.AddProbe("flits", DeltaProbe(func() uint64 { cum += 7; return cum }))
	for now := uint64(100); now <= 300; now += 100 {
		r.Sample(now)
	}
	if s.Samples() != 3 {
		t.Fatalf("got %d samples, want 3", s.Samples())
	}
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	want := []string{"cycle,occ,flits", "100,1,7", "200,2,7", "300,3,7"}
	if got := strings.Split(strings.TrimSpace(buf.String()), "\n"); !slices.Equal(got, want) {
		t.Errorf("csv = %q, want %q", got, want)
	}
}

func TestSamplerCountersAppearInTrace(t *testing.T) {
	r := New(Config{Trace: true, SampleInterval: 50})
	r.Sampler().AddProbe("depth", func(now uint64) float64 { return 4 })
	r.Sample(50)
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"ph":"C"`) || !strings.Contains(buf.String(), `"depth"`) {
		t.Errorf("counter event missing from trace: %s", buf.String())
	}
}

func TestLatencyReport(t *testing.T) {
	r := New(Config{})
	for i := 0; i < 100; i++ {
		r.Lat(LatWriteDrain, 3)
	}
	r.Lat(LatReadMiss, 49)
	r.Lat(LatReadMiss, 51)
	r.Lat(LatSwap, 120)
	rep := r.LatencyReport()
	if rep == nil || len(rep.Entries) != 3 {
		t.Fatalf("report entries = %+v", rep)
	}
	if rep.Entries[0].Kind != "read_miss" || rep.Entries[0].Max != 51 {
		t.Errorf("read_miss entry wrong: %+v", rep.Entries[0])
	}
	if rep.Entries[1].Kind != "write_drain" || rep.Entries[1].Count != 100 {
		t.Errorf("write_drain entry wrong: %+v", rep.Entries[1])
	}
	if m := rep.Map(); m["swap"].Count != 1 {
		t.Errorf("map export wrong: %v", m)
	}
	if !strings.Contains(rep.String(), "read_miss") {
		t.Errorf("report text missing read_miss:\n%s", rep)
	}
	// Empty recorder → nil report.
	if New(Config{}).LatencyReport() != nil {
		t.Error("empty recorder produced a report")
	}
}
