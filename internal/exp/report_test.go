package exp

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/coherence"
	"repro/internal/mem"
	"repro/internal/obs/resource"
)

// TestResourceSamplingDoesNotPerturbRun is the determinism pin for the
// off-engine measurement plane, the resource-telemetry counterpart of
// core's TestObserverDoesNotPerturbRun: executing the pinned run with
// the wall-clock resource sampler active must leave the cycle count
// and the full Result JSON byte-identical to an unsampled run. The
// sampler lives on its own goroutine and shares nothing with the
// engine, so any difference here means the measurement plane leaked
// into the simulation.
func TestResourceSamplingDoesNotPerturbRun(t *testing.T) {
	r := Run{Bench: Ocean, Protocol: coherence.WTI, Arch: mem.Arch2, NumCPUs: 16}
	sc := QuickScale()

	base, err := Execute(r, sc)
	if err != nil {
		t.Fatal(err)
	}
	var baseJSON bytes.Buffer
	if err := base.WriteJSON(&baseJSON); err != nil {
		t.Fatal(err)
	}

	sampler := resource.Start(time.Millisecond)
	sampled, err := Execute(r, sc)
	sum := sampler.Stop()
	if err != nil {
		t.Fatal(err)
	}
	var sampledJSON bytes.Buffer
	if err := sampled.WriteJSON(&sampledJSON); err != nil {
		t.Fatal(err)
	}

	if base.Cycles != sampled.Cycles {
		t.Fatalf("cycles changed under resource sampling: %d -> %d",
			base.Cycles, sampled.Cycles)
	}
	if !bytes.Equal(baseJSON.Bytes(), sampledJSON.Bytes()) {
		t.Fatalf("Result JSON changed under resource sampling:\n%s\nvs\n%s",
			baseJSON.String(), sampledJSON.String())
	}
	// And the sampler really ran: first+final at minimum.
	if sum.Samples < 2 {
		t.Fatalf("sampler recorded %+v, want at least 2 samples", sum)
	}
	if sum.HeapAllocPeak == 0 {
		t.Error("summary has zero heap peak")
	}
}

// TestReportMerge pins the merged export schema: a measured run's
// Report carries both the deterministic result fields and the
// resources block, while an unsampled Report marshals to exactly the
// plain Result JSON bytes.
func TestReportMerge(t *testing.T) {
	r := Run{Bench: Ocean, Protocol: coherence.WTI, Arch: mem.Arch2, NumCPUs: 4}
	sampler := resource.Start(time.Millisecond)
	res, err := Execute(r, QuickScale())
	sum := sampler.Stop()
	if err != nil {
		t.Fatal(err)
	}

	var merged bytes.Buffer
	if err := NewReport(res, &sum).Write(&merged); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(merged.Bytes(), &doc); err != nil {
		t.Fatalf("merged report is not valid JSON: %v", err)
	}
	if _, ok := doc["schema_version"]; !ok {
		t.Error("merged report lost schema_version")
	}
	if _, ok := doc["cycles"]; !ok {
		t.Error("merged report lost cycles")
	}
	resBlock, ok := doc["resources"].(map[string]any)
	if !ok {
		t.Fatalf("merged report has no resources block: %v", doc["resources"])
	}
	if n, _ := resBlock["samples"].(float64); n < 2 {
		t.Errorf("resources.samples = %v, want >= 2", resBlock["samples"])
	}

	// Without a summary the report is byte-identical to Result JSON.
	var plain, report bytes.Buffer
	if err := res.WriteJSON(&plain); err != nil {
		t.Fatal(err)
	}
	if err := NewReport(res, nil).Write(&report); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), report.Bytes()) {
		t.Errorf("unsampled Report diverges from Result JSON:\n%s\nvs\n%s",
			plain.String(), report.String())
	}
	if err := NewReport(res, &resource.Summary{}).Write(&report); err != nil {
		t.Fatal(err)
	}
}
