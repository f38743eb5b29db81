package core

import (
	"encoding/json"
	"io"

	"repro/internal/obs"
)

// SchemaVersion identifies the ResultJSON layout. It is bumped when a
// field changes meaning or is removed; purely additive fields do not
// bump it. History: 1 = the original flat schema, 2 = adds
// schema_version itself and the optional latency block.
const SchemaVersion = 2

// ResultJSON is the flattened, stable export schema for one run — the
// machine-readable counterpart of Result.Summary, for feeding external
// analysis or plotting tools. See README.md ("Result JSON schema") for
// the field-by-field description.
type ResultJSON struct {
	SchemaVersion int    `json:"schema_version"`
	Protocol      string `json:"protocol"`
	Arch          string `json:"arch"`
	NumCPUs       int    `json:"cpus"`
	NoC           string `json:"noc"`

	Cycles           uint64  `json:"cycles"`
	MegaCycles       float64 `json:"megacycles"`
	Instructions     uint64  `json:"instructions"`
	TrafficBytes     uint64  `json:"traffic_bytes"`
	Packets          uint64  `json:"packets"`
	DataStallPct     float64 `json:"data_stall_pct"`
	InstStallPct     float64 `json:"inst_stall_pct"`
	LoadMissRate     float64 `json:"load_miss_rate"`
	IFetches         uint64  `json:"ifetches"`
	IMisses          uint64  `json:"imisses"`
	InvalsSent       uint64  `json:"invals_sent"`
	UpdatesSent      uint64  `json:"updates_sent"`
	FetchesSent      uint64  `json:"fetches_sent"`
	Writebacks       uint64  `json:"writebacks"`
	Upgrades         uint64  `json:"upgrades"`
	Swaps            uint64  `json:"swaps"`
	C2CTransfers     uint64  `json:"c2c_transfers"`
	WBufFullStalls   uint64  `json:"wbuf_full_stalls"`
	DeferredRequests uint64  `json:"deferred_requests"`

	// Latency carries the per-request-type latency digests when the run
	// was observed (omitted otherwise).
	Latency map[string]obs.LatencySummary `json:"latency,omitempty"`

	// Fault carries the fault-campaign block when the run injected
	// faults (omitted on the zero-fault path, keeping the schema
	// byte-identical to pre-fault-layer output).
	Fault *FaultJSON `json:"fault,omitempty"`
}

// FaultJSON is the flattened fault-campaign block of ResultJSON.
type FaultJSON struct {
	Plan           string `json:"plan"`
	Drops          uint64 `json:"drops"`
	Retransmits    uint64 `json:"retransmits"`
	BackoffCycles  uint64 `json:"backoff_cycles"`
	Delayed        uint64 `json:"delayed"`
	DelayCycles    uint64 `json:"delay_cycles"`
	Dups           uint64 `json:"dups"`
	DupsSuppressed uint64 `json:"dups_suppressed"`
	StallWindows   uint64 `json:"stall_windows"`
	StallCycles    uint64 `json:"stall_cycles"`
}

// JSON flattens the result into the export schema.
func (r *Result) JSON() ResultJSON {
	out := ResultJSON{
		SchemaVersion: SchemaVersion,
		Protocol:      r.Config.Protocol.String(),
		Arch:          r.Config.Arch.String(),
		NumCPUs:       r.Config.Mem.NumCPUs,
		NoC:           r.Config.NoC.String(),
		Cycles:        r.Cycles,
		MegaCycles:    r.MegaCycles(),
		Instructions:  r.Instructions(),
		TrafficBytes:  r.TrafficBytes(),
		Packets:       r.Net.Packets,
		DataStallPct:  r.DataStallPercent(),
		InstStallPct:  r.InstStallPercent(),
		LoadMissRate:  r.LoadMissRate(),
		IFetches:      r.IFetches,
		IMisses:       r.IMisses,
	}
	for i := range r.DCache {
		d := &r.DCache[i]
		out.Writebacks += d.Writebacks
		out.Upgrades += d.Upgrades
		out.Swaps += d.Swaps
		out.C2CTransfers += d.C2CTransfers
		out.WBufFullStalls += d.WBufFullStalls
	}
	for i := range r.Mem {
		m := &r.Mem[i]
		out.InvalsSent += m.InvalsSent
		out.UpdatesSent += m.UpdatesSent
		out.FetchesSent += m.FetchesSent
		out.DeferredRequests += m.Deferred
	}
	out.Latency = r.Latency.Map()
	if f := r.Fault; f != nil {
		out.Fault = &FaultJSON{
			Plan:           r.Config.Fault.String(),
			Drops:          f.Stats.Drops,
			Retransmits:    f.Retransmits,
			BackoffCycles:  f.BackoffCycles,
			Delayed:        f.Stats.Delayed,
			DelayCycles:    f.Stats.DelayCycles,
			Dups:           f.Stats.Dups,
			DupsSuppressed: f.Stats.DupsSuppressed,
			StallWindows:   f.Stats.StallWindows,
			StallCycles:    f.Stats.StallCycles,
		}
	}
	return out
}

// WriteJSON writes the result as indented JSON.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.JSON())
}
