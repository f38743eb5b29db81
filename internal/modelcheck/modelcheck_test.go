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
// paper's two protocols and pins the size of each space, as
// TestExhaustiveAllProtocols does without it (skipped under -short).
func TestExhaustiveWithSwap(t *testing.T) {
	if testing.Short() {
		t.Skip("swap-enabled exploration skipped in -short mode")
	}
	pins := map[coherence.Protocol]Result{
		coherence.WTI:    {States: 170502, Transitions: 304974, MaxDepth: 88, Quiescent: 481, Terminal: 210, Complete: true},
		coherence.WBMESI: {States: 126566, Transitions: 160446, MaxDepth: 143, Quiescent: 486, Terminal: 208, Complete: true},
	}
	for _, proto := range []coherence.Protocol{coherence.WTI, coherence.WBMESI} {
		t.Run(proto.String(), func(t *testing.T) {
			t.Parallel()
			res, err := Explore(DefaultScope(proto))
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
// addresses mapping to different banks, and pins the size of its space.
func TestTwoBankScope(t *testing.T) {
	if testing.Short() {
		t.Skip("two-bank exploration skipped in -short mode")
	}
	sc := Scope{
		Proto:     coherence.WBMESI,
		CPUs:      2,
		Banks:     2,
		Addrs:     2, // distinct blocks, distinct banks
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
	pin := Result{States: 240227, Transitions: 269243, MaxDepth: 172, Quiescent: 555, Terminal: 320, Complete: true}
	if res != pin {
		t.Fatalf("explored %+v, pinned %+v", res, pin)
	}
}

// TestScopeValidation rejects malformed scopes, and scopes too big for
// the encodings: a joint choice is a uint16, a ghost set 16 bits.
func TestScopeValidation(t *testing.T) {
	for _, c := range []struct {
		sc   Scope
		want string
	}{
		{Scope{CPUs: 0, Banks: 1}, "CPUs must be 1..4"},
		{Scope{CPUs: 2, Banks: 3}, "Banks must be 1..2"},
		{Scope{CPUs: 2, Banks: 1, Vals: []uint32{0}}, "value 0 is reserved"},
		{Scope{CPUs: 2, Banks: 1, Vals: []uint32{swapValue}}, "reserved for swap"},
		{Scope{CPUs: 4, Banks: 1, Addrs: 4, WithSwap: true, OpsPerCPU: 1}, "83521 joint choices; a choice holds at most 65536"},
		{Scope{CPUs: 2, Banks: 1, Vals: []uint32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}}, "18 distinct word values (stores, swap and the initial 0); a ghost set holds at most 16"},
	} {
		c.sc.Proto, c.sc.MaxStates = coherence.WTI, 10
		if _, err := Explore(c.sc); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("scope %+v: got %v, want an error containing %q", c.sc, err, c.want)
		}
	}
}
