package modelcheck

import (
	"strings"
	"testing"

	"repro/internal/coherence"
)

// noSwapScope is the default scope minus the swap op — the standard
// always-run test scope (the swap variant runs unless -short).
func noSwapScope(proto coherence.Protocol) Scope {
	sc := DefaultScope(proto)
	sc.WithSwap = false
	return sc
}

// TestExhaustiveAllProtocols enumerates the full reachable state space
// of the 2-CPU/1-bank/1-address scope for every row of the protocol
// table and requires zero violations, zero deadlocks and the pinned
// size of the space: the explorer drives the real controllers, so a
// count that moves means protocol behaviour (or what the fingerprint
// sees of it) moved. A new row fails here until its counts are pinned.
func TestExhaustiveAllProtocols(t *testing.T) {
	pins := map[coherence.Protocol]Result{
		coherence.WTI:    {States: 68439, Transitions: 129087, MaxDepth: 88, Quiescent: 211, Terminal: 77, Complete: true},
		coherence.WTU:    {States: 82367, Transitions: 148571, MaxDepth: 111, Quiescent: 209, Terminal: 95, Complete: true},
		coherence.WBMESI: {States: 42197, Transitions: 53333, MaxDepth: 143, Quiescent: 193, Terminal: 69, Complete: true},
		coherence.MOESI:  {States: 28021, Transitions: 40687, MaxDepth: 113, Quiescent: 169, Terminal: 57, Complete: true},
	}
	for p := range coherence.Protocols {
		proto := coherence.Protocol(p)
		t.Run(proto.String(), func(t *testing.T) {
			t.Parallel()
			res, err := Explore(noSwapScope(proto))
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation != nil {
				t.Fatalf("violation:\n%s", res.Violation.Trace)
			}
			if res != pins[proto] {
				t.Fatalf("explored %+v, pinned %+v", res, pins[proto])
			}
		})
	}
}

// TestExhaustiveWithSwap adds the atomic swap to the alphabet for the
// paper's two protocols (the bigger spaces take ~10s each; skipped
// under -short).
func TestExhaustiveWithSwap(t *testing.T) {
	if testing.Short() {
		t.Skip("swap-enabled exploration skipped in -short mode")
	}
	for _, proto := range []coherence.Protocol{coherence.WTI, coherence.WBMESI} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			t.Parallel()
			res, err := Explore(DefaultScope(proto))
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation != nil {
				t.Fatalf("violation:\n%s", res.Violation.Trace)
			}
			if !res.Complete || res.States < 10000 {
				t.Fatalf("complete=%t states=%d", res.Complete, res.States)
			}
		})
	}
}

// TestMutationsCaught proves the checkers have teeth: a seeded protocol
// mutation (a dropped invalidation, a write-through acknowledged
// without reaching memory) must be detected, with a rendered
// counterexample trace ending in the failed invariant.
func TestMutationsCaught(t *testing.T) {
	cases := []struct {
		name  string
		proto coherence.Protocol
		fault coherence.FaultPlan
	}{
		{"WTI-drop-inval", coherence.WTI, coherence.FaultPlan{DropInvals: 1}},
		{"WTI-skip-wt-apply", coherence.WTI, coherence.FaultPlan{SkipWTApply: 1}},
		{"WB-drop-inval", coherence.WBMESI, coherence.FaultPlan{DropInvals: 1}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sc := noSwapScope(tc.proto)
			sc.Fault = tc.fault
			res, err := Explore(sc)
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation == nil {
				t.Fatalf("seeded fault %+v escaped the checker (%d states)", tc.fault, res.States)
			}
			v := res.Violation
			if v.Trace == "" || !strings.Contains(v.Trace, "FAIL:") {
				t.Fatalf("counterexample trace not rendered: %q", v.Trace)
			}
			if len(v.Path) == 0 {
				t.Fatal("counterexample has no choice path")
			}
			t.Logf("caught as %s after %d states: %v", v.Kind, res.States, v.Err)
		})
	}
}

// TestMutationKinds pins down how each mutation manifests, so a
// regression that silently weakens one checker (say, the deadlock
// detector starts classifying hangs as clean) fails loudly.
func TestMutationKinds(t *testing.T) {
	sc := noSwapScope(coherence.WTI)
	sc.Fault = coherence.FaultPlan{SkipWTApply: 1}
	res, err := Explore(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("skip-wt-apply escaped")
	}
	// A write-through acknowledged without reaching memory breaks the
	// WTI "memory is always current" value invariant.
	if res.Violation.Kind != "invariant" && res.Violation.Kind != "quiescent" {
		t.Fatalf("expected a value-invariant violation, got %s: %v", res.Violation.Kind, res.Violation.Err)
	}
}

// TestDeterministicExploration runs the same scope twice and requires
// bit-identical results: state, transition and depth counts. The
// explorer replays paths on deterministic hardware, so any divergence
// means nondeterminism crept into the simulated components — the very
// property the lint suite guards.
func TestDeterministicExploration(t *testing.T) {
	sc := noSwapScope(coherence.WTI)
	sc.OpsPerCPU = 1
	a, err := Explore(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Explore(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.States != b.States || a.Transitions != b.Transitions || a.MaxDepth != b.MaxDepth {
		t.Fatalf("nondeterministic exploration: run1={states %d, transitions %d, depth %d} run2={states %d, transitions %d, depth %d}",
			a.States, a.Transitions, a.MaxDepth, b.States, b.Transitions, b.MaxDepth)
	}
	if a.Violation != nil {
		t.Fatalf("violation in 1-op scope:\n%s", a.Violation.Trace)
	}
}

// TestMaxStatesBound verifies the exploration bound cuts off cleanly
// and reports incompleteness.
func TestMaxStatesBound(t *testing.T) {
	sc := noSwapScope(coherence.WTI)
	sc.MaxStates = 500
	res, err := Explore(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Fatal("bounded run reported complete")
	}
	if res.States < 500 {
		t.Fatalf("stopped early: %d states", res.States)
	}
}

// TestTwoBankScope exercises the multi-bank address interleave with two
// addresses mapping to different banks.
func TestTwoBankScope(t *testing.T) {
	if testing.Short() {
		t.Skip("two-bank exploration skipped in -short mode")
	}
	sc := Scope{
		Proto:     coherence.WBMESI,
		CPUs:      2,
		Banks:     2,
		Addrs:     ScopeAddrs(2), // distinct blocks, distinct banks
		Vals:      []uint32{1},
		OpsPerCPU: 2,
	}
	res, err := Explore(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("violation:\n%s", res.Violation.Trace)
	}
	if !res.Complete {
		t.Fatal("exploration did not complete")
	}
}

// TestScopeValidation rejects malformed scopes.
func TestScopeValidation(t *testing.T) {
	for _, sc := range []Scope{
		{Proto: coherence.WTI, CPUs: 0, Banks: 1},
		{Proto: coherence.WTI, CPUs: 2, Banks: 3},
		{Proto: coherence.WTI, CPUs: 2, Banks: 1, Vals: []uint32{0}},
		{Proto: coherence.WTI, CPUs: 2, Banks: 1, Vals: []uint32{swapValue}},
	} {
		if _, err := Explore(Scope{Proto: sc.Proto, CPUs: sc.CPUs, Banks: sc.Banks, Vals: sc.Vals, MaxStates: 10}); err == nil && (sc.CPUs == 0 || sc.Banks == 3 || len(sc.Vals) > 0) {
			t.Errorf("scope %+v accepted", sc)
		}
	}
}
