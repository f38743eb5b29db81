// Command mcheck exhaustively model-checks the coherence protocols at
// small scope: it enumerates every reachable state of a 2–3 cache,
// 1–2 bank system built from the real controller/directory/NoC code,
// checking the SWMR, value, directory-agreement and deadlock-freedom
// invariants in each state. A violation exits nonzero and prints a
// replayable counterexample trace.
//
// Examples:
//
//	mcheck -protocol both          # the paper's two policies, default scope
//	mcheck -protocol all -swap=false   # every protocol, no swap op
//	mcheck -protocol wti -fault drop-inval   # prove the checker catches it
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/coherence"
	"repro/internal/modelcheck"
)

func main() {
	var (
		protoFlag = flag.String("protocol", "both", "protocol(s): "+protocolNames()+" (both = the paper's wti+wb)")
		cpus      = flag.Int("cpus", 2, "number of caches (1..4)")
		banks     = flag.Int("banks", 1, "number of directory banks (1..2)")
		addrs     = flag.Int("addrs", 1, "number of scoped words (consecutive blocks)")
		vals      = flag.String("vals", "1,2", "comma-separated store value alphabet")
		swap      = flag.Bool("swap", true, "include atomic swap in the op alphabet")
		ops       = flag.Int("ops", 2, "operations each CPU may initiate")
		maxStates = flag.Int("max-states", 0, "abort after this many states (0 = exhaust)")
		faultFlag = flag.String("fault", "", "seed a mutation: drop-inval|skip-wt-apply (the run must FAIL)")
		faultN    = flag.Int("fault-n", 1, "how many times the fault fires")
		verbose   = flag.Bool("v", false, "print the counterexample trace on violation")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		// Almost always a misplaced flag value (mcheck wti used to
		// check "both").
		usage(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *addrs < 1 {
		usage(fmt.Errorf("-addrs %d: need at least one scoped word", *addrs))
	}

	protos, err := parseProtocols(*protoFlag)
	if err != nil {
		usage(err)
	}
	values, err := parseVals(*vals)
	if err != nil {
		usage(err)
	}
	var fault coherence.FaultPlan
	switch *faultFlag {
	case "":
	case "drop-inval":
		fault.DropInvals = *faultN
	case "skip-wt-apply":
		fault.SkipWTApply = *faultN
	default:
		usage(fmt.Errorf("unknown -fault %q", *faultFlag))
	}

	exitCode := 0
	for _, proto := range protos {
		sc := modelcheck.DefaultScope(proto)
		sc.CPUs = *cpus
		sc.Banks = *banks
		sc.Vals = values
		sc.WithSwap = *swap
		sc.OpsPerCPU = *ops
		sc.MaxStates = *maxStates
		sc.Fault = fault
		sc.Addrs = *addrs

		fmt.Printf("mcheck %v: %d cpus, %d banks, %d addr(s), vals %v, swap=%t, %d ops/cpu\n",
			proto, sc.CPUs, sc.Banks, sc.Addrs, sc.Vals, sc.WithSwap, sc.OpsPerCPU)
		start := time.Now()
		res, err := modelcheck.Explore(sc)
		if err != nil {
			usage(err)
		}
		elapsed := time.Since(start).Round(time.Millisecond)
		completeness := "exhausted"
		switch {
		case res.Violation != nil:
			completeness = "stopped at first violation"
		case !res.Complete:
			completeness = fmt.Sprintf("bounded at %d states", sc.MaxStates)
		}
		fmt.Printf("  %d states, %d transitions, max depth %d, %d quiescent (%d terminal), %s in %v\n",
			res.States, res.Transitions, res.MaxDepth, res.Quiescent, res.Terminal, completeness, elapsed)
		if res.Violation != nil {
			fmt.Printf("  FAIL [%s]: %v\n", res.Violation.Kind, res.Violation.Err)
			if *verbose {
				fmt.Print(res.Violation.Trace)
			} else {
				fmt.Printf("  (%d-cycle counterexample; rerun with -v for the full trace)\n", len(res.Violation.Path))
			}
			exitCode = 1
		} else {
			fmt.Printf("  OK: no violations, no deadlocks\n")
		}
	}
	os.Exit(exitCode)
}

// usage reports a bad invocation and exits 2.
func usage(err error) {
	fmt.Fprintln(os.Stderr, "mcheck:", err)
	os.Exit(2)
}

// protocolNames lists what -protocol takes: every row of
// coherence.Protocols, then the two sets.
func protocolNames() string {
	return strings.Join(append(coherence.ProtocolNames(), "both", "all"), "|")
}

func parseProtocols(s string) ([]coherence.Protocol, error) {
	switch s = strings.ToLower(s); s {
	case "both":
		return []coherence.Protocol{coherence.WTI, coherence.WBMESI}, nil
	case "all":
		all := make([]coherence.Protocol, len(coherence.Protocols))
		for p := range all {
			all[p] = coherence.Protocol(p)
		}
		return all, nil
	case "mesi", "wbmesi": // WB's other names
		s = "wb"
	}
	p, err := coherence.ParseProtocol(s)
	if err != nil {
		return nil, fmt.Errorf("unknown -protocol %q (valid: %s)", s, protocolNames())
	}
	return []coherence.Protocol{p}, nil
}

func parseVals(s string) ([]uint32, error) {
	var out []uint32
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseUint(part, 0, 32)
		if err != nil {
			return nil, fmt.Errorf("bad -vals entry %q: %v", part, err)
		}
		out = append(out, uint32(v))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-vals must name at least one value")
	}
	return out, nil
}
