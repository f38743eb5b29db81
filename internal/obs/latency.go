package obs

import (
	"fmt"
	"strings"

	"repro/internal/stats"
)

// LatKind classifies a memory request for latency attribution. The
// kinds mirror the rows of the paper's Table 1 so the histograms
// reproduce its hop costs empirically from live runs: a clean 2-hop
// miss pays roughly two NoC crossings plus the bank latency, the 4- and
// 6-hop transactions stack invalidation and fetch round-trips on top.
// Hits complete in zero cycles and are counted by the caches' own
// statistics (coherence.DCacheStats), not here.
type LatKind uint8

// Request latency classes.
const (
	// LatReadMiss: blocking load miss, request to fill.
	LatReadMiss LatKind = iota
	// LatWriteDrain: WTI write-buffer residency, post to acknowledge.
	// This is the paper's non-blocking 2- or 4-hop write as seen by
	// the buffer, and the series that saturates first under bank
	// contention.
	LatWriteDrain
	// LatWriteAlloc: MESI write miss, exclusive allocation to
	// completion (the blocking 2-to-6-hop transaction).
	LatWriteAlloc
	// LatUpgrade: MESI shared-hit upgrade, request to exclusivity.
	LatUpgrade
	// LatSwap: atomic swap, issue to completion.
	LatSwap
	// LatWriteback: MESI dirty eviction, writeback to acknowledge
	// (non-blocking).
	LatWriteback
	// LatRetry: time a NoC transfer spent being retransmitted after
	// link-level losses, first loss to successful injection. Only fault
	// campaigns (internal/fault) produce samples; the class is absent
	// from every zero-fault report.
	LatRetry

	numLatKinds
)

var latKindNames = [numLatKinds]string{
	LatReadMiss:   "read_miss",
	LatWriteDrain: "write_drain",
	LatWriteAlloc: "write_alloc",
	LatUpgrade:    "upgrade",
	LatSwap:       "swap",
	LatWriteback:  "writeback",
	LatRetry:      "retry",
}

// String implements fmt.Stringer.
func (k LatKind) String() string {
	if int(k) < len(latKindNames) {
		return latKindNames[k]
	}
	return fmt.Sprintf("LatKind(%d)", uint8(k))
}

type latencySet struct {
	hist [numLatKinds]stats.Histogram
}

// Lat records one completed request of the given kind.
func (r *Recorder) Lat(k LatKind, cycles uint64) {
	if r == nil {
		return
	}
	r.lat.hist[k].Record(cycles)
}

// Done records one finished transaction of kind k: a span named after k
// on row tid of pid's track group, and its latency sample.
func (r *Recorder) Done(pid, tid int, k LatKind, begin, end uint64, addr uint32) {
	if r == nil {
		return
	}
	r.Span(pid, tid, k.String(), begin, end, addr)
	r.Lat(k, end-begin)
}

// LatencySummary is the percentile digest of one request class, in
// cycles. Percentiles are the power-of-two-bucket upper bounds of
// stats.Histogram.
type LatencySummary struct {
	Kind  string  `json:"kind"`
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   uint64  `json:"p50"`
	P95   uint64  `json:"p95"`
	P99   uint64  `json:"p99"`
	Max   uint64  `json:"max"`
}

// LatencyReport is the end-of-run latency attribution: one summary per
// request class that actually occurred, in LatKind order.
type LatencyReport struct {
	Entries []LatencySummary
}

// LatencyReport digests the recorded histograms (nil when no recorder
// is attached or nothing was recorded).
func (r *Recorder) LatencyReport() *LatencyReport {
	if r == nil {
		return nil
	}
	rep := &LatencyReport{}
	for k := LatKind(0); k < numLatKinds; k++ {
		h := &r.lat.hist[k]
		if h.Count() == 0 {
			continue
		}
		rep.Entries = append(rep.Entries, LatencySummary{
			Kind:  k.String(),
			Count: h.Count(),
			Mean:  h.Mean(),
			P50:   h.Percentile(50),
			P95:   h.Percentile(95),
			P99:   h.Percentile(99),
			Max:   h.Max(),
		})
	}
	if len(rep.Entries) == 0 {
		return nil
	}
	return rep
}

// String renders the report as an aligned table.
func (rep *LatencyReport) String() string {
	if rep == nil || len(rep.Entries) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %9s %6s %6s %6s %8s\n",
		"request", "count", "mean", "p50<=", "p95<=", "p99<=", "max")
	for _, e := range rep.Entries {
		fmt.Fprintf(&b, "%-12s %10d %9.1f %6d %6d %6d %8d\n",
			e.Kind, e.Count, e.Mean, e.P50, e.P95, e.P99, e.Max)
	}
	return b.String()
}

// Map keys the summaries by kind for JSON export.
func (rep *LatencyReport) Map() map[string]LatencySummary {
	if rep == nil || len(rep.Entries) == 0 {
		return nil
	}
	m := make(map[string]LatencySummary, len(rep.Entries))
	for _, e := range rep.Entries {
		m[e.Kind] = e
	}
	return m
}
