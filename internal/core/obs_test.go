package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
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
// the per-entity track metadata the viewers rely on.
func TestObservedTraceLoads(t *testing.T) {
	rec := obs.New(obs.Config{Trace: true, SampleInterval: 200})
	runObserved(t, "ocean", coherence.WTI, 4, rec)

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
		if e["ph"] == "M" && e["name"] == "process_name" {
			name := e["args"].(map[string]any)["name"].(string)
			names[name] = true
			if strings.HasPrefix(name, "port") {
				nodes++
			}
		}
	}
	for _, want := range []string{"metrics", "cpu0", "cpu3", "bank0 dir", "port0 (cpu0)"} {
		if !names[want] {
			t.Errorf("trace missing track %q (have %v)", want, names)
		}
	}
	// A port's injection marker sits on the row of its destination node.
	instants := 0
	for _, e := range doc.TraceEvents {
		if pid := int(e["pid"].(float64)); e["ph"] == "i" && pid >= obs.PortPid(0) {
			instants++
			if self, dst := pid-obs.PortPid(0), int(e["tid"].(float64)); dst == self || dst < 0 || dst >= nodes {
				t.Fatalf("port%d instant %v: tid %d is not another of the %d nodes", self, e, dst, nodes)
			}
		}
	}
	if instants == 0 {
		t.Error("trace has no port injection markers")
	}
	if !strings.Contains(buf.String(), `"ph":"C"`) {
		t.Error("trace has no counter events despite sampling")
	}
}

// TestResultJSONSchemaVersion pins the export schema version field.
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
