// Package fault is the deterministic fault-injection layer for the
// simulated NoC. A seeded Plan describes adverse-but-survivable
// interconnect behaviour — extra per-packet latency, dropped transfers,
// duplicated transfers, and transient memory-bank stall windows — and
// Wrap threads it between the protocol controllers and any
// noc.Network model without touching the zero-fault fast path.
//
// The model is a lossy physical link under the reliable link-level
// framing real NoCs use (CRC-checked flits with sender retransmission):
//
//   - a *drop* corrupts the transfer on the wire; Inject answers the
//     injecting port noc.Lost and the coherence.Node retransmits after a
//     bounded exponential backoff, preserving its outbound FIFO order by
//     head-of-line blocking;
//   - a *duplicate* is a spurious retransmission; it consumes real link
//     bandwidth and queue slots in the wrapped network but is
//     suppressed by the receiving port's sequence check before the
//     protocol sink sees it;
//   - a *delay* holds the transfer back before injection, preserving
//     per-source order (and hence the per-(src,dst) FIFO guarantee the
//     protocols require);
//   - a *bank stall* freezes delivery at a memory bank's port for a
//     window of cycles, modelling a transient controller outage;
//     traffic backs up into the network as ordinary backpressure.
//
// End-to-end the protocols therefore still see exactly-once, FIFO
// delivery — dropped and duplicated transfers cost time, traffic and
// retry budget, never correctness — which is what keeps the WTI/WB
// comparison sound under fault campaigns. Every decision is drawn from
// splitmix64 streams derived from Plan.Seed, so a campaign replays
// bit-identically from its spec string.
package fault

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"
)

// Wildcard marks a scope endpoint that matches any node (the "*" of
// the spec syntax).
const Wildcard = -1

// LinkScope restricts a fault directive to packets travelling from Src
// to Dst; either endpoint may be Wildcard.
type LinkScope struct {
	Src, Dst int
}

// Matches reports whether the packet endpoints fall inside the scope.
func (s LinkScope) Matches(src, dst int) bool {
	return (s.Src == Wildcard || s.Src == src) && (s.Dst == Wildcard || s.Dst == dst)
}

func (s LinkScope) global() bool { return s.Src == Wildcard && s.Dst == Wildcard }

func (s LinkScope) String() string {
	end := func(n int) string {
		if n == Wildcard {
			return "*"
		}
		return strconv.Itoa(n)
	}
	return end(s.Src) + ">" + end(s.Dst)
}

// DropSpec is one drop (or duplicate) directive: a per-transfer
// probability over a link scope.
type DropSpec struct {
	Rate  float64
	Scope LinkScope
}

// DelaySpec is one delay directive: with probability Rate, a transfer
// is held back Cycles extra cycles before injection.
type DelaySpec struct {
	Rate   float64
	Cycles int
	Scope  LinkScope
}

// StallSpec is one bank-stall directive: each cycle an unstalled bank
// in scope starts a stall window of Window cycles with probability
// Rate. Bank is a bank index (not a node id), or Wildcard for all.
type StallSpec struct {
	Rate   float64
	Window int
	Bank   int
}

// Plan is a parsed fault campaign. The zero value (and a nil *Plan)
// injects nothing. For each packet, the first directive of a kind
// whose scope matches decides that kind's draw.
type Plan struct {
	// Seed drives every pseudo-random stream of the campaign.
	Seed      uint64
	Drop      []DropSpec
	Dup       []DropSpec
	Delay     []DelaySpec
	BankStall []StallSpec
}

// Empty reports whether the plan has no fault directives (the seed
// alone does nothing).
func (p *Plan) Empty() bool {
	return p == nil ||
		len(p.Drop) == 0 && len(p.Dup) == 0 && len(p.Delay) == 0 && len(p.BankStall) == 0
}

// firstRate returns the rate of the first of specs (drop or duplicate
// directives) whose scope holds a src→dst transfer, or 0.
func firstRate(specs []DropSpec, src, dst int) float64 {
	for i := range specs {
		if specs[i].Scope.Matches(src, dst) {
			return specs[i].Rate
		}
	}
	return 0
}

// delayFor returns the delay directive applying to a src→dst transfer,
// or nil.
func (p *Plan) delayFor(src, dst int) *DelaySpec {
	for i := range p.Delay {
		if p.Delay[i].Scope.Matches(src, dst) {
			return &p.Delay[i]
		}
	}
	return nil
}

// stallFor returns the stall directive applying to a bank index, or
// nil.
func (p *Plan) stallFor(bank int) *StallSpec {
	for i := range p.BankStall {
		if s := &p.BankStall[i]; s.Bank == Wildcard || s.Bank == bank {
			return s
		}
	}
	return nil
}

// String renders the plan in the canonical spec syntax; the output
// parses back to an equal plan, and is embedded in liveness diagnostics
// so a failing campaign can be replayed verbatim.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	var parts []string
	rate := func(r float64) string { return strconv.FormatFloat(r, 'g', -1, 64) }
	scope := func(s LinkScope) string {
		if s.global() {
			return ""
		}
		return "@" + s.String()
	}
	for _, d := range p.Drop {
		parts = append(parts, "drop="+rate(d.Rate)+scope(d.Scope))
	}
	for _, d := range p.Delay {
		parts = append(parts, fmt.Sprintf("delay=%s:%d%s", rate(d.Rate), d.Cycles, scope(d.Scope)))
	}
	for _, d := range p.Dup {
		parts = append(parts, "dup="+rate(d.Rate)+scope(d.Scope))
	}
	for _, s := range p.BankStall {
		spec := fmt.Sprintf("bankstall=%s:%d", rate(s.Rate), s.Window)
		if s.Bank != Wildcard {
			spec += "@" + strconv.Itoa(s.Bank)
		}
		parts = append(parts, spec)
	}
	parts = append(parts, "seed="+strconv.FormatUint(p.Seed, 10))
	return strings.Join(parts, ",")
}

// ParsePlan parses a fault spec string:
//
//	drop=RATE[@SRC>DST]       transfer loss (sender-notified, retried)
//	dup=RATE[@SRC>DST]        spurious duplicate transfer
//	delay=RATE:CYCLES[@SRC>DST]  extra injection latency
//	bankstall=RATE:CYCLES[@BANK] transient bank delivery outage
//	seed=N                    PRNG seed (default 1)
//
// Directives are comma-separated; SRC/DST are node ids or "*", BANK is
// a bank index. Rates are probabilities in [0,1]. An empty spec yields
// a nil plan (faults disabled). Unknown or malformed directives are
// errors — a campaign must never silently run with fewer faults than
// asked for.
func ParsePlan(spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	p := &Plan{Seed: 1}
	seenSeed := false
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			return nil, fmt.Errorf("fault: empty directive in %q", spec)
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("fault: directive %q is not key=value", field)
		}
		switch key {
		case "seed":
			if seenSeed {
				return nil, fmt.Errorf("fault: duplicate seed directive")
			}
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad seed %q", val)
			}
			p.Seed = n
			seenSeed = true
		case "drop", "dup":
			body, sc, serr := parseScoped(val)
			r, err := parseRate(body)
			if err = cmp.Or(err, serr); err != nil {
				return nil, fmt.Errorf("fault: %s: %w", key, err)
			}
			d := DropSpec{Rate: r, Scope: sc}
			if key == "drop" {
				p.Drop = append(p.Drop, d)
			} else {
				p.Dup = append(p.Dup, d)
			}
		case "delay":
			body, sc, serr := parseScoped(val)
			r, cyc, err := parseRateCycles(body)
			if err = cmp.Or(err, serr); err != nil {
				return nil, fmt.Errorf("fault: delay: %w", err)
			}
			p.Delay = append(p.Delay, DelaySpec{Rate: r, Cycles: cyc, Scope: sc})
		case "bankstall":
			body, scopeStr, scoped := strings.Cut(val, "@")
			r, cyc, err := parseRateCycles(body)
			if err != nil {
				return nil, fmt.Errorf("fault: bankstall: %w", err)
			}
			bank := Wildcard
			if scoped {
				b, err := strconv.Atoi(scopeStr)
				if err != nil || b < 0 {
					return nil, fmt.Errorf("fault: bankstall: bad bank scope %q", scopeStr)
				}
				bank = b
			}
			p.BankStall = append(p.BankStall, StallSpec{Rate: r, Window: cyc, Bank: bank})
		default:
			return nil, fmt.Errorf("fault: unknown directive %q", key)
		}
	}
	return p, nil
}

// parseRate parses a probability in [0,1].
func parseRate(s string) (float64, error) {
	r, err := strconv.ParseFloat(s, 64)
	if err != nil || r < 0 || r > 1 || r != r {
		return 0, fmt.Errorf("bad rate %q (need a probability in [0,1])", s)
	}
	return r, nil
}

// parseScoped splits "BODY[@SRC>DST]" into the body and its link scope,
// "*" a wildcard endpoint, every link when there is no suffix.
func parseScoped(val string) (string, LinkScope, error) {
	body, scopeStr, scoped := strings.Cut(val, "@")
	if !scoped {
		return body, LinkScope{Src: Wildcard, Dst: Wildcard}, nil
	}
	srcStr, dstStr, ok := strings.Cut(scopeStr, ">")
	if !ok {
		return body, LinkScope{}, fmt.Errorf("bad scope %q (need SRC>DST)", scopeStr)
	}
	end := func(e string) (int, error) {
		if e == "*" {
			return Wildcard, nil
		}
		n, err := strconv.Atoi(e)
		if err != nil || n < 0 {
			return 0, fmt.Errorf("bad scope endpoint %q", e)
		}
		return n, nil
	}
	src, serr := end(srcStr)
	dst, derr := end(dstStr)
	return body, LinkScope{Src: src, Dst: dst}, cmp.Or(serr, derr)
}

func parseRateCycles(val string) (float64, int, error) {
	rateStr, cycStr, ok := strings.Cut(val, ":")
	if !ok {
		return 0, 0, fmt.Errorf("bad value %q (need RATE:CYCLES)", val)
	}
	r, err := parseRate(rateStr)
	if err != nil {
		return 0, 0, err
	}
	cyc, err := strconv.Atoi(cycStr)
	if err != nil || cyc < 1 {
		return 0, 0, fmt.Errorf("bad cycle count %q (need a positive integer)", cycStr)
	}
	return r, cyc, nil
}
