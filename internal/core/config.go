// Package core assembles and runs complete simulated platforms: n SR32
// CPUs with split I/D caches sharing one NoC port each, m memory banks
// with co-located full-map directories, and the interconnect — the
// system of the paper's Figure 3 — and exposes the measurements the
// paper reports (execution time, NoC traffic, data-stall share).
package core

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/fault"
	"repro/internal/mem"
)

// NoCKind selects the interconnect model.
type NoCKind int

// Interconnect models.
const (
	// GMNNet is the paper's Generic Micro Network (crossbar with delay
	// FIFOs) — the default.
	GMNNet NoCKind = iota
	// MeshNet is the 2D-mesh router network used for the ablation.
	MeshNet
	// BusNet is a single shared bus — the interconnect class the
	// paper's introduction argues against; used by the ablation that
	// re-creates WTI's historical bus handicap.
	BusNet
)

// String implements fmt.Stringer.
func (k NoCKind) String() string {
	switch k {
	case MeshNet:
		return "mesh"
	case BusNet:
		return "bus"
	default:
		return "gmn"
	}
}

// Config describes one platform instance.
type Config struct {
	Protocol coherence.Protocol
	Arch     mem.Arch

	Mem coherence.Params // cache/bank parameters; Mem.NumCPUs is the machine's CPU count

	// NoC selects the interconnect, built with its model's default
	// parameters for the node count.
	NoC NoCKind

	// Fault, when non-empty, threads the deterministic fault-injection
	// layer (internal/fault) between the protocol controllers and the
	// interconnect; its lost transfers drive the ports' retransmission
	// machinery, whose spent budget ends the run (System.Run). nil (or
	// an empty plan) leaves the network unwrapped: the zero-fault path
	// is the code that ran before the fault layer existed.
	Fault *fault.Plan

	// MaxCycles bounds the simulation (0 = the defensive default).
	MaxCycles uint64

	// DisableLeap selects the naive reference schedule: every component
	// ticks on every cycle, nothing is skipped or leaped. Results are
	// byte-identical either way, so the switch exists for equivalence
	// tests and debugging, and is absent from Describe and the result
	// JSON.
	DisableLeap bool
}

// DefaultConfig returns the paper's platform for n CPUs on the given
// architecture and protocol.
func DefaultConfig(proto coherence.Protocol, arch mem.Arch, n int) Config {
	return Config{Protocol: proto, Arch: arch, Mem: coherence.DefaultParams(n)}
}

// normalize fills zero-value fields with defaults and validates.
func (c *Config) normalize() error {
	if c.Protocol < 0 || int(c.Protocol) >= len(coherence.Protocols) {
		return fmt.Errorf("core: unknown protocol %v", c.Protocol)
	}
	if err := c.Mem.Validate(); err != nil {
		return err
	}
	if c.NoC < GMNNet || c.NoC > BusNet {
		return fmt.Errorf("core: unknown NoC kind %d", c.NoC)
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = 2_000_000_000
	}
	return nil
}

// Describe renders the configuration in the style of the paper's
// Table 2, followed by every axis that is off its default (as
// exp.Run.Key names them), so different machines never print the same
// line.
func (c Config) Describe() string {
	cfg := c
	if err := cfg.normalize(); err != nil {
		return "invalid config: " + err.Error()
	}
	assoc := "direct"
	if cfg.Mem.Ways > 1 {
		assoc = fmt.Sprintf("%d-way", cfg.Mem.Ways)
	}
	s := fmt.Sprintf(
		"protocol=%v arch=%v cpus=%d banks=%d dcache=%dB icache=%dB block=%dB assoc=%s wbuf=%dw noc=%v",
		cfg.Protocol, cfg.Arch, cfg.Mem.NumCPUs, cfg.Arch.NumBanks(cfg.Mem.NumCPUs),
		cfg.Mem.DCacheBytes, cfg.Mem.ICacheBytes, coherence.BlockBytes, assoc,
		cfg.Mem.WriteBufferWords, cfg.NoC)
	if cfg.Mem.StrictSC {
		s += " strictsc"
	}
	if cfg.Mem.CacheToCache && !coherence.Protocols[cfg.Protocol].ForcesC2C {
		s += " c2c"
	}
	if cfg.Mem.DirPointers != 0 {
		s += fmt.Sprintf(" dir=%d", cfg.Mem.DirPointers)
	}
	return s
}
