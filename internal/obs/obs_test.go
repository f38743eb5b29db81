package obs

import (
	"bytes"
	"encoding/json"
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
	r.NameProcess(1, "x", 0)
	r.NameThread(1, 0, "x")
	r.Span(1, 0, "s", 0, 10, 0)
	r.Instant(1, 0, "i", 5, 0)
	id := r.Begin(1, "b", 0, 0)
	if id != 0 {
		t.Fatalf("nil Begin returned live handle %d", id)
	}
	r.End(id, 10)
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
	r.NameProcess(CPUPid(0), "cpu0", 0)
	r.NameThread(CPUPid(0), TidStall, "stall")
	r.NameProcess(DirPid(1), "dir bank1", 10)
	r.Span(CPUPid(0), TidStall, "data stall", 10, 60, 0x1000)
	r.Instant(PortPid(0), 0, "ReqRead", 12, 0x1000)
	id := r.Begin(DirPid(1), "ReqWriteThrough", 20, 0x2000)
	id2 := r.Begin(DirPid(1), "ReqRead", 25, 0x2040)
	r.End(id, 70)
	r.End(id2, 80)
	open := r.Begin(DirPid(1), "ReqSwap", 90, 0x2080) // left open on purpose
	_ = open

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
		"ReqRead", "ReqWriteThrough", "ReqSwap"} {
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

func TestLaneReuse(t *testing.T) {
	r := New(Config{Trace: true})
	a := r.Begin(DirPid(0), "a", 0, 0)
	r.End(a, 10)
	b := r.Begin(DirPid(0), "b", 20, 0)
	r.End(b, 30)
	// Sequential spans should reuse the freed lane.
	tb := r.tb
	if got := tb.events[0].tid; got != tb.events[1].tid {
		t.Errorf("sequential spans on different lanes: %d vs %d", tb.events[0].tid, got)
	}
}

func TestTraceEventCap(t *testing.T) {
	r := New(Config{Trace: true, MaxTraceEvents: 3})
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
	occ := s.Series("occ")
	if len(occ) != 3 || occ[2] != 3 {
		t.Fatalf("occ series wrong: %v", occ)
	}
	flits := s.Series("flits")
	if flits[0] != 7 || flits[1] != 7 || flits[2] != 7 {
		t.Fatalf("delta probe wrong: %v", flits)
	}
	if s.Series("nope") != nil {
		t.Fatal("unknown series should be nil")
	}

	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "cycle,occ,flits" {
		t.Errorf("csv header = %q", lines[0])
	}
	if len(lines) != 4 || lines[1] != "100,1,7" {
		t.Errorf("csv rows wrong: %v", lines)
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
		r.Lat(LatReadHit, 0)
	}
	r.Lat(LatReadMiss, 49)
	r.Lat(LatReadMiss, 51)
	r.Lat(LatSwap, 120)
	rep := r.LatencyReport()
	if rep == nil || len(rep.Entries) != 3 {
		t.Fatalf("report entries = %+v", rep)
	}
	if rep.Entries[0].Kind != "read_hit" || rep.Entries[0].Count != 100 {
		t.Errorf("first entry wrong: %+v", rep.Entries[0])
	}
	if rep.Entries[1].Kind != "read_miss" || rep.Entries[1].Max != 51 {
		t.Errorf("read_miss entry wrong: %+v", rep.Entries[1])
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
