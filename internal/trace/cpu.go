package trace

import (
	"repro/internal/coherence"
	"repro/internal/sim"
	"repro/internal/stats"
)

// CPUStats counts one trace CPU's activity.
type CPUStats struct {
	Ops         uint64
	StallCycles uint64
	ThinkCycles uint64
	// Latency is the distribution of per-operation completion times in
	// cycles (from first issue to completion).
	Latency stats.Histogram
}

// CPU replays a reference stream against a data cache with a fixed
// think time between completed operations. It fills the same slot of a
// platform as the SR32 interpreter (core.BuildStreams).
type CPU struct {
	ID    int
	dc    coherence.DataCache
	gen   Generator
	think uint64
	left  uint64

	pending bool
	op      Op
	opStart uint64
	nextAt  uint64
	done    bool
	st      CPUStats
}

// NewCPU builds a trace CPU issuing ops operations of gen, think cycles
// apart. With ops == 0 gen is never asked and may be nil.
func NewCPU(id int, dc coherence.DataCache, gen Generator, ops, think uint64) *CPU {
	return &CPU{ID: id, dc: dc, gen: gen, left: ops, think: think}
}

// Halted reports whether the stream is exhausted: the stream CPU's
// counterpart of the interpreter's HALT.
func (c *CPU) Halted() bool { return c.done }

// Stats returns the CPU's counters.
func (c *CPU) Stats() *CPUStats { return &c.st }

// Tick implements sim.Ticker.
func (c *CPU) Tick(now uint64) {
	if c.done {
		return
	}
	if now < c.nextAt {
		c.st.ThinkCycles++
		return
	}
	if !c.pending {
		if c.left == 0 {
			c.done = true
			return
		}
		c.left--
		c.op = c.gen.Next()
		c.opStart = now
		c.pending = true
	}
	var ok bool
	if c.op.Store {
		ok = c.dc.Store(now, c.op.Addr, c.op.Data, 0xf)
	} else {
		_, ok = c.dc.Load(now, c.op.Addr, 0xf)
	}
	if !ok {
		c.st.StallCycles++
		return
	}
	c.st.Ops++
	c.st.Latency.Record(now - c.opStart)
	c.pending = false
	c.nextAt = now + 1 + c.think
}

// NextWake implements sim.Sleeper: the CPU sleeps through its think
// time and once its stream is exhausted; an operation in progress polls
// the cache every cycle.
func (c *CPU) NextWake(now uint64) uint64 {
	if c.done {
		return sim.NoWake
	}
	return max(c.nextAt, now)
}

// Skip implements sim.Sleeper: skipped cycles are think time unless the
// stream is exhausted.
func (c *CPU) Skip(from, to uint64) {
	if !c.done {
		c.st.ThinkCycles += to - from
	}
}
