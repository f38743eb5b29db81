package core

import (
	"strings"
	"testing"

	"repro/internal/coherence"
	"repro/internal/mem"
)

func TestDefaultConfigNormalizes(t *testing.T) {
	cfg := DefaultConfig(coherence.WTI, mem.Arch2, 8)
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	if cfg.MaxCycles == 0 {
		t.Fatal("MaxCycles not defaulted")
	}
	if cfg.Mem.DCacheBytes != 4096 {
		t.Fatalf("Table 2 defaults not applied: %+v", cfg.Mem)
	}
}

func TestConfigRejectsBadValues(t *testing.T) {
	// with returns the 4-CPU arch1 default after edit.
	with := func(edit func(c *Config)) Config {
		c := DefaultConfig(coherence.WTI, mem.Arch1, 4)
		edit(&c)
		return c
	}
	bad := []struct {
		cfg  Config
		want string // the error names the offending field
	}{
		{Config{}, "NumCPUs 0 outside 1..64"},
		{with(func(c *Config) { c.NoC = NoCKind(42) }), "NoC kind 42"},
		{with(func(c *Config) { c.NoC = NoCKind(-1) }), "NoC kind -1"},
	}
	for i, b := range bad {
		if err := b.cfg.normalize(); err == nil || !strings.Contains(err.Error(), b.want) {
			t.Errorf("bad config %d: normalize() = %v, want an error naming %q", i, err, b.want)
		}
	}
}

func TestDescribeMentionsEverything(t *testing.T) {
	cfg := DefaultConfig(coherence.WBMESI, mem.Arch1, 16)
	s := cfg.Describe()
	for _, want := range []string{"WB", "arch1", "cpus=16", "banks=2", "dcache=4096B", "block=32B", "assoc=direct", "wbuf=8w"} {
		if !strings.Contains(s, want) {
			t.Errorf("Describe() = %q missing %q", s, want)
		}
	}
	// Every axis off its default is named after the default line, so
	// two different machines never print the same header.
	cfg.Mem.Ways = 2
	cfg.Mem.StrictSC = true
	cfg.Mem.CacheToCache = true
	cfg.Mem.DirPointers = 2
	want := strings.Replace(s, "assoc=direct", "assoc=2-way", 1) + " strictsc c2c dir=2"
	if got := cfg.Describe(); got != want {
		t.Errorf("Describe() = %q, want %q", got, want)
	}
	// MOESI implies cache-to-cache: asking for it is not another machine.
	moesi := DefaultConfig(coherence.MOESI, mem.Arch1, 16)
	plain := moesi.Describe()
	moesi.Mem.CacheToCache = true
	if got := moesi.Describe(); got != plain || strings.Contains(got, "c2c") {
		t.Errorf("MOESI Describe() = %q with -c2c, %q without", got, plain)
	}
}

func TestResultMetrics(t *testing.T) {
	res := runCounter(t, coherence.WTI, mem.Arch2, GMNNet, 2, 40)
	if res.MegaCycles() <= 0 {
		t.Fatal("no cycles")
	}
	if res.TrafficBytes() == 0 {
		t.Fatal("no traffic")
	}
	p := res.DataStallPercent()
	if p <= 0 || p >= 100 {
		t.Fatalf("stall%% = %v", p)
	}
	if res.LoadMissRate() <= 0 || res.LoadMissRate() > 1 {
		t.Fatalf("miss rate = %v", res.LoadMissRate())
	}
	if !strings.Contains(res.Summary(), "Mcycles") {
		t.Fatalf("Summary = %q", res.Summary())
	}
	if res.IFetches == 0 {
		t.Fatal("no instruction fetches recorded")
	}
}

func TestCheckCoherenceAfterRun(t *testing.T) {
	for _, proto := range []coherence.Protocol{coherence.WTI, coherence.WTU, coherence.WBMESI} {
		spec, err := buildQuickCounter(4)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := Build(DefaultConfig(proto, mem.Arch2, 4), spec.Image)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		if err := sys.CheckCoherence(); err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
	}
}

func TestStrictSCEndToEnd(t *testing.T) {
	spec, err := buildQuickCounter(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(coherence.WTI, mem.Arch2, 4)
	cfg.Mem.StrictSC = true
	sys, err := Build(cfg, spec.Image)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if err := spec.Check(sys.Space); err != nil {
		t.Fatal(err)
	}
}

func TestCacheToCacheEndToEnd(t *testing.T) {
	spec, err := buildQuickCounter(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(coherence.WBMESI, mem.Arch2, 4)
	cfg.Mem.CacheToCache = true
	sys, err := Build(cfg, spec.Image)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	sys.FlushCaches()
	if err := spec.Check(sys.Space); err != nil {
		t.Fatal(err)
	}
	var c2c uint64
	for i := range sys.DCaches {
		c2c += sys.DCaches[i].Stats().C2CTransfers
	}
	if c2c == 0 {
		t.Fatal("no cache-to-cache transfers occurred on a contended counter")
	}
}

func TestDeadlineSurfacesStuckPCs(t *testing.T) {
	// A program that never halts must produce the deadline error with
	// the stuck program counters in it.
	spec, err := buildQuickCounter(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(coherence.WTI, mem.Arch2, 1)
	cfg.MaxCycles = 50
	sys, err := Build(cfg, spec.Image)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.Run()
	if err == nil || !strings.Contains(err.Error(), "cpu0@") {
		t.Fatalf("err = %v", err)
	}
}

func TestResultJSONExport(t *testing.T) {
	res := runCounter(t, coherence.WBMESI, mem.Arch2, GMNNet, 2, 30)
	j := res.JSON()
	if j.Protocol != "WB" || j.Arch != "arch2" || j.NumCPUs != 2 {
		t.Fatalf("identity fields: %+v", j)
	}
	if j.Cycles != res.Cycles || j.TrafficBytes != res.TrafficBytes() {
		t.Fatal("metric fields do not match the result")
	}
	var buf strings.Builder
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"megacycles\"") {
		t.Fatalf("JSON output missing fields: %s", buf.String())
	}
}
