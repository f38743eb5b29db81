package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/coherence"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/workload"
)

// runObserved runs one ocean/water point with the given recorder
// (nil = baseline) and returns the result.
func runObserved(t *testing.T, bench string, proto coherence.Protocol, n int, rec *obs.Recorder) *Result {
	t.Helper()
	l := mem.DefaultLayout(n)
	var spec *workload.Spec
	var err error
	switch bench {
	case "ocean":
		spec, err = workload.BuildOcean(l, codegen.DS, workload.OceanParams{
			Threads: n, RowsPerThread: 2, Iters: 2})
	case "water":
		spec, err = workload.BuildWater(l, codegen.DS, workload.WaterParams{
			Threads: n, MolsPerThread: 2, Steps: 2})
	default:
		t.Fatalf("unknown bench %q", bench)
	}
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	sys, err := Build(DefaultConfig(proto, mem.Arch2, n), spec.Image)
	if err != nil {
		t.Fatalf("wire: %v", err)
	}
	sys.AttachObserver(rec)
	res, err := sys.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	sys.FlushCaches()
	if spec.Check != nil {
		if err := spec.Check(sys.Space); err != nil {
			t.Fatalf("check: %v", err)
		}
	}
	return res
}

// TestObserverDoesNotPerturbRun pins the zero-perturbation guarantee:
// attaching full observability (tracing, sampling, latency attribution)
// must not change the cycle count or any coherence counter of a run.
func TestObserverDoesNotPerturbRun(t *testing.T) {
	for _, bench := range []string{"ocean", "water"} {
		for _, proto := range []coherence.Protocol{coherence.WTI, coherence.WBMESI} {
			t.Run(fmt.Sprintf("%s/%v", bench, proto), func(t *testing.T) {
				base := runObserved(t, bench, proto, 4, nil)
				rec := obs.New(obs.Config{Trace: true, SampleInterval: 100})
				observed := runObserved(t, bench, proto, 4, rec)

				if base.Cycles != observed.Cycles {
					t.Fatalf("cycles changed under observation: %d -> %d",
						base.Cycles, observed.Cycles)
				}
				if base.Net != observed.Net {
					t.Fatalf("NoC stats changed: %+v -> %+v", base.Net, observed.Net)
				}
				if !reflect.DeepEqual(base.CPU, observed.CPU) {
					t.Fatalf("CPU stats changed:\n%+v\n%+v", base.CPU, observed.CPU)
				}
				if !reflect.DeepEqual(base.DCache, observed.DCache) {
					t.Fatalf("dcache stats changed:\n%+v\n%+v", base.DCache, observed.DCache)
				}
				if !reflect.DeepEqual(base.Mem, observed.Mem) {
					t.Fatalf("directory stats changed:\n%+v\n%+v", base.Mem, observed.Mem)
				}

				// And the observer actually observed something.
				if rec.TraceEvents() == 0 {
					t.Fatal("no trace events recorded")
				}
				if rec.Sampler().Samples() == 0 {
					t.Fatal("no interval samples recorded")
				}
				if observed.Latency == nil {
					t.Fatal("no latency report")
				}
			})
		}
	}
}

// TestObservedTraceLoads ensures a full-system trace is valid JSON with
// the per-entity track metadata the viewers rely on, for a write-through
// and a write-back run: posted writes awaiting their ack (write_drain,
// writeback) sit on lanes, and a bank's overlapping directory
// transactions never share one.
func TestObservedTraceLoads(t *testing.T) {
	for _, tc := range []struct {
		proto  coherence.Protocol
		posted string // the span kind of the protocol's posted writes
	}{{coherence.WTI, "write_drain"}, {coherence.WBMESI, "writeback"}} {
		t.Run(tc.proto.String(), func(t *testing.T) {
			rec := obs.New(obs.Config{Trace: true, SampleInterval: 200})
			res := runObserved(t, "ocean", tc.proto, 4, rec)
			checkTrace(t, rec, tc.posted, res.Net.Packets)
		})
	}
}

// checkTrace checks a fault-free run's trace, whose network carried
// packets: every one of them was sent once and so marked once.
func checkTrace(t *testing.T, rec *obs.Recorder, posted string, packets uint64) {
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	names := make(map[string]bool)
	nodes := 0
	for _, e := range doc.TraceEvents {
		if e["ph"] != "M" {
			continue
		}
		name := e["args"].(map[string]any)["name"]
		switch e["name"] {
		case "process_name":
			names[name.(string)] = true
			if strings.HasPrefix(name.(string), "port") {
				nodes++
			}
		case "thread_name":
			if name == "evict" {
				t.Errorf("trace names an evict row: %v", e)
			}
		}
	}
	for _, want := range []string{"metrics", "cpu0", "cpu3", "bank0 dir", "port0 (cpu0)"} {
		if !names[want] {
			t.Errorf("trace missing track %q (have %v)", want, names)
		}
	}
	// A port's injection marker sits on the row of its destination node.
	instants, postedSpans := 0, 0
	type span struct {
		pid, tid   int
		begin, end float64
	}
	var dirSpans []span
	for _, e := range doc.TraceEvents {
		if e["ph"] == "M" {
			continue
		}
		pid := int(e["pid"].(float64))
		if e["ph"] == "i" && pid >= obs.PortPid(0) {
			instants++
			if self, dst := pid-obs.PortPid(0), int(e["tid"].(float64)); dst == self || dst < 0 || dst >= nodes {
				t.Fatalf("port%d instant %v: tid %d is not another of the %d nodes", self, e, dst, nodes)
			}
		}
		if e["ph"] != "X" {
			continue
		}
		tid := int(e["tid"].(float64))
		if e["name"] == posted {
			postedSpans++
			if tid < obs.TidLane {
				t.Fatalf("%s span on row %d, not a lane: %v", posted, tid, e)
			}
		}
		if pid >= obs.DirPid(0) && pid < obs.PortPid(0) {
			ts := e["ts"].(float64)
			dirSpans = append(dirSpans, span{pid, tid, ts, ts + e["dur"].(float64)})
		}
	}
	if uint64(instants) != packets {
		t.Errorf("trace has %d port injection markers; want one per packet, %d", instants, packets)
	}
	if postedSpans == 0 {
		t.Errorf("trace has no %s spans", posted)
	}
	if len(dirSpans) == 0 {
		t.Error("trace has no directory spans")
	}
	sort.Slice(dirSpans, func(i, j int) bool {
		a, b := dirSpans[i], dirSpans[j]
		if a.pid != b.pid || a.tid != b.tid {
			return a.pid < b.pid || a.pid == b.pid && a.tid < b.tid
		}
		return a.begin < b.begin
	})
	for i := 1; i < len(dirSpans); i++ {
		a, b := dirSpans[i-1], dirSpans[i]
		if a.pid == b.pid && a.tid == b.tid && b.begin < a.end {
			t.Fatalf("directory spans %+v and %+v overlap on one lane", a, b)
		}
	}
	if !strings.Contains(buf.String(), `"ph":"C"`) {
		t.Error("trace has no counter events despite sampling")
	}
}

// TestTraceTrackMetadata pins every track a traced machine names, in
// the order WriteTrace emits them: the metrics group, each CPU, each
// bank's directory and each NoC port (CPU ports first, as the nodes are
// numbered), then each CPU's stall and dcache rows.
func TestTraceTrackMetadata(t *testing.T) {
	rec := obs.New(obs.Config{Trace: true})
	runObserved(t, "ocean", coherence.WTI, 2, rec)
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Ph string
			Pid, Tid int
			Args     struct {
				Name      string
				SortIndex int `json:"sort_index"`
			}
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var got []string
	for _, e := range doc.TraceEvents {
		switch e.Name {
		case "process_name":
			got = append(got, fmt.Sprintf("%d %q", e.Pid, e.Args.Name))
		case "process_sort_index":
			got = append(got, fmt.Sprintf("%d sort %d", e.Pid, e.Args.SortIndex))
		case "thread_name":
			got = append(got, fmt.Sprintf("%d/%d %q", e.Pid, e.Tid, e.Args.Name))
		}
	}
	var want []string
	for _, p := range []struct {
		pid  int
		name string
		sort int
	}{
		{1, "metrics", 0},
		{1000, "cpu0", 10}, {1001, "cpu1", 11},
		{2000, "bank0 dir", 1000}, {2001, "bank1 dir", 1001}, {2002, "bank2 dir", 1002},
		{2003, "bank3 dir", 1003}, {2004, "bank4 dir", 1004},
		{3000, "port0 (cpu0)", 2000}, {3001, "port1 (cpu1)", 2001}, {3002, "port2 (bank0)", 2002},
		{3003, "port3 (bank1)", 2003}, {3004, "port4 (bank2)", 2004}, {3005, "port5 (bank3)", 2005},
		{3006, "port6 (bank4)", 2006},
	} {
		want = append(want, fmt.Sprintf("%d %q", p.pid, p.name), fmt.Sprintf("%d sort %d", p.pid, p.sort))
	}
	want = append(want, `1000/0 "stall"`, `1000/1 "dcache"`, `1001/0 "stall"`, `1001/1 "dcache"`)
	if !slices.Equal(got, want) {
		t.Errorf("track metadata:\n got %q\nwant %q", got, want)
	}
}

func TestResultJSONSchemaVersion(t *testing.T) {
	res := runObserved(t, "water", coherence.WBMESI, 2, nil)
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if v, ok := m["schema_version"].(float64); !ok || int(v) != SchemaVersion {
		t.Fatalf("schema_version = %v, want %d", m["schema_version"], SchemaVersion)
	}
	if _, ok := m["latency"]; ok {
		t.Fatal("latency block present on an unobserved run")
	}
}
