// Seeded soak grid: complete workloads run under every fault dimension
// on both write policies, with the runtime invariant checker live, the
// quiescent coherence checker at the end, the host-reference result
// check, and a final-memory digest compared across protocols and
// against the zero-fault baseline. The grid here is the quick tier run
// by `go test ./...`; the long tier lives in soak_full_test.go behind
// the `soak` build tag (nightly CI).
package fault_test

import (
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/workload"
)

// soakSpecs is the quick fault grid: each dimension alone, rated high
// enough to fire many times in a ~40k-cycle run, then all at once.
var soakSpecs = []string{
	"drop=0.01,seed=42",
	"delay=0.02:8,seed=42",
	"dup=0.01,seed=42",
	"bankstall=0.002:16,seed=42",
	"drop=0.005,delay=0.01:8,dup=0.005,bankstall=0.001:16,seed=42",
}

var soakProtocols = []coherence.Protocol{coherence.WTI, coherence.WBMESI}

// soakOutcome is what one grid point must reproduce exactly: the
// measured cycles, the injected-fault counters, and a digest of the
// final shared-memory segment.
type soakOutcome struct {
	cycles uint64
	stats  fault.Stats
	retx   uint64
	digest uint64
}

// runSoakPoint builds, runs, and fully checks one (protocol, plan)
// point on the shared-counter workload: runtime invariants every
// checkEvery cycles, quiescent coherence check, host-reference result
// check, then the shared-segment digest.
func runSoakPoint(t *testing.T, proto coherence.Protocol, planSpec string, cpus, incs int, checkEvery uint64) soakOutcome {
	t.Helper()
	l := mem.DefaultLayout(cpus)
	spec, err := workload.BuildCounter(l, codegen.DS, workload.CounterParams{Threads: cpus, Incs: incs})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(proto, mem.Arch2, cpus)
	if planSpec != "" {
		plan, err := fault.ParsePlan(planSpec)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Fault = plan
	}
	sys, err := core.Build(cfg, spec.Image)
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableRuntimeChecks(checkEvery)
	res, err := sys.Run()
	if err != nil {
		t.Fatalf("%v under %q: %v", proto, planSpec, err)
	}
	if err := sys.CheckCoherence(); err != nil {
		t.Fatalf("%v under %q: quiescent coherence check: %v", proto, planSpec, err)
	}
	sys.FlushCaches()
	if err := spec.Check(sys.Space); err != nil {
		t.Fatalf("%v under %q: host reference: %v", proto, planSpec, err)
	}
	out := soakOutcome{cycles: res.Cycles, digest: outputDigest(t, sys, spec)}
	if res.Fault != nil {
		out.stats = res.Fault.Stats
		out.retx = res.Fault.Retransmits
	}
	return out
}

// outputDigest FNV-hashes the cache block holding the program's defined
// output (the `counter` symbol). Only the output is hashed: the rest of
// the shared segment holds runtime scratch — notably the barrier's wait
// queue, whose residue records thread arrival order and so legitimately
// varies with protocol and fault timing.
func outputDigest(t *testing.T, sys *core.System, spec *workload.Spec) uint64 {
	t.Helper()
	base, ok := spec.Image.Symbols["counter"]
	if !ok {
		t.Fatal("workload image defines no `counter` symbol")
	}
	h := uint64(14695981039346656037)
	for off := uint32(0); off < 32; off += 4 {
		h = (h ^ uint64(sys.Space.ReadWord(base+off))) * 1099511628211
	}
	return h
}

// TestSoakQuickGrid is the quick soak tier: the full fault grid on both
// protocols, every check armed, and final memory required to agree with
// the zero-fault baseline and across protocols — exactly-once FIFO
// delivery means faults may cost cycles and traffic, never results.
func TestSoakQuickGrid(t *testing.T) {
	const cpus, incs = 4, 40
	baseline := make(map[coherence.Protocol]soakOutcome)
	for _, proto := range soakProtocols {
		baseline[proto] = runSoakPoint(t, proto, "", cpus, incs, 256)
	}
	if baseline[coherence.WTI].digest != baseline[coherence.WBMESI].digest {
		t.Fatalf("zero-fault final memory diverges across protocols; the digest is unusable")
	}
	for _, specStr := range soakSpecs {
		specStr := specStr
		t.Run(strings.ReplaceAll(specStr, "=", ""), func(t *testing.T) {
			for _, proto := range soakProtocols {
				got := runSoakPoint(t, proto, specStr, cpus, incs, 256)
				if got.digest != baseline[proto].digest {
					t.Errorf("%v: faulted final memory differs from the zero-fault baseline", proto)
				}
				injected := got.stats.Drops + got.stats.Delayed + got.stats.Dups + got.stats.StallWindows
				if injected == 0 {
					t.Errorf("%v: campaign %q injected nothing; the grid point is vacuous", proto, specStr)
				}
				if got.stats.Drops != got.retx {
					t.Errorf("%v: %d drops but %d retransmissions; every loss must be retried exactly once",
						proto, got.stats.Drops, got.retx)
				}
				if got.stats.Dups != got.stats.DupsSuppressed {
					t.Errorf("%v: %d duplicates injected, %d suppressed; none may reach a protocol sink",
						proto, got.stats.Dups, got.stats.DupsSuppressed)
				}
			}
		})
	}
}

// TestSoakReplayDeterminism: a fixed-seed campaign reproduces its
// cycle count, fault counters, and final memory bit-for-bit.
func TestSoakReplayDeterminism(t *testing.T) {
	spec := soakSpecs[len(soakSpecs)-1] // the all-dimensions campaign
	for _, proto := range soakProtocols {
		a := runSoakPoint(t, proto, spec, 4, 40, 0)
		b := runSoakPoint(t, proto, spec, 4, 40, 0)
		if a != b {
			t.Errorf("%v: identical campaigns diverged: %+v vs %+v", proto, a, b)
		}
	}
}

// TestSoakSeedMatters: different seeds must produce different fault
// interleavings (otherwise the seed plumbing is dead and every
// "campaign" is secretly the same one).
func TestSoakSeedMatters(t *testing.T) {
	a := runSoakPoint(t, coherence.WTI, "drop=0.01,delay=0.02:8,seed=1", 4, 40, 0)
	b := runSoakPoint(t, coherence.WTI, "drop=0.01,delay=0.02:8,seed=2", 4, 40, 0)
	if a.stats == b.stats && a.cycles == b.cycles {
		t.Errorf("seeds 1 and 2 produced identical campaigns: %+v", a)
	}
	if a.digest != b.digest {
		t.Errorf("different seeds changed the program's final memory")
	}
}

// TestSoakCanaryStillCaught: the fault layer must not mask real
// protocol bugs. With the wrapper active, a seeded directory mutation
// (a silently dropped invalidation — coherence.FaultPlan, the model
// checker's canary) must still trip the invariant checkers or the
// host-reference check.
func TestSoakCanaryStillCaught(t *testing.T) {
	const cpus = 4
	l := mem.DefaultLayout(cpus)
	spec, err := workload.BuildCounter(l, codegen.DS, workload.CounterParams{Threads: cpus, Incs: 40})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(coherence.WBMESI, mem.Arch2, cpus)
	// The canary may livelock the protocol outright (a CPU spinning on a
	// stale lock word it was never told to invalidate); bound the run so
	// that failure mode surfaces as ErrDeadline — detection, not a hang.
	// The healthy run finishes in well under 100k cycles.
	cfg.MaxCycles = 500_000
	plan, err := fault.ParsePlan("delay=0.02:8,drop=0.005,seed=42")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fault = plan
	sys, err := core.Build(cfg, spec.Image)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range sys.Banks {
		b.Fault.DropInvals = 2
	}
	sys.EnableRuntimeChecks(1)
	res, runErr := sys.Run()
	if runErr == nil {
		if err := sys.CheckCoherence(); err == nil {
			sys.FlushCaches()
			if err := spec.Check(sys.Space); err == nil {
				t.Fatalf("dropped invalidations went completely undetected under the fault layer (run: %d cycles)",
					res.Cycles)
			}
		}
	}
}
