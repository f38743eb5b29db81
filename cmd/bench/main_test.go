package main

import (
	"encoding/json"
	"testing"
)

func TestRejectPositional(t *testing.T) {
	if err := rejectPositional(nil); err != nil {
		t.Errorf("no leftover args: %v", err)
	}
	// `bench -o -quick` swallows "-quick" as the -o value and leaves any
	// later token positional; it must be refused, not silently ignored.
	for _, args := range [][]string{{"out.json"}, {"-quick"}, {"extra", "args"}} {
		if err := rejectPositional(args); err == nil {
			t.Errorf("rejectPositional(%q) = nil, want error", args)
		}
	}
}

// TestSchemaV3Dedup pins the v3 dedup: the marshaled BenchJSON must
// not contain the old `engine` block (the run it duplicated is named
// by engine_run instead) and must carry the schema version benchdiff
// keys its tolerant reader off.
func TestSchemaV3Dedup(t *testing.T) {
	b := BenchJSON{
		SchemaVersion: BenchSchemaVersion,
		EngineRun:     "ocean/WTI/arch2/n16",
		Workloads: []WorkloadBench{
			{Run: "ocean/WTI/arch2/n16", Cycles: 1, WallMs: 1, MCyclesPerSec: 1},
		},
	}
	enc, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(enc, &doc); err != nil {
		t.Fatal(err)
	}
	if _, dup := doc["engine"]; dup {
		t.Error("schema v3 still emits the duplicated engine block")
	}
	if doc["engine_run"] != "ocean/WTI/arch2/n16" {
		t.Errorf("engine_run = %v", doc["engine_run"])
	}
	if v, _ := doc["schema_version"].(float64); int(v) != 4 {
		t.Errorf("schema_version = %v, want 4", doc["schema_version"])
	}
}
