package trace

import (
	"repro/internal/coherence"
	"repro/internal/cpu"
	"repro/internal/sim"
)

// CPU replays a reference stream against a data cache with a fixed
// think time between completed operations. It fills the same slot of a
// platform as the SR32 interpreter (core.BuildStreams) and counts in
// the interpreter's cpu.Stats: a completed reference is one instruction
// and one load or store, a cycle spent waiting on the cache one data
// stall.
type CPU struct {
	ID    int
	dc    coherence.DataCache
	gen   Generator
	think uint64
	left  uint64

	pending bool
	op      Op
	nextAt  uint64
	done    bool
	st      cpu.Stats
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
func (c *CPU) Stats() *cpu.Stats { return &c.st }

// Tick implements sim.Ticker.
func (c *CPU) Tick(now uint64) {
	if c.done || now < c.nextAt {
		return
	}
	if !c.pending {
		if c.left == 0 {
			c.done = true
			return
		}
		c.left--
		c.op = c.gen.Next()
		c.pending = true
	}
	if c.op.Store {
		if !c.dc.Store(now, c.op.Addr, c.op.Data, 0xf) {
			c.st.DataStallCycles++
			return
		}
		c.st.Stores++
	} else {
		if _, ok := c.dc.Load(now, c.op.Addr, 0xf); !ok {
			c.st.DataStallCycles++
			return
		}
		c.st.Loads++
	}
	c.st.Instructions++
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

// Skip implements sim.Sleeper. The CPU only sleeps through think time
// and past the end of its stream, and neither is counted.
func (c *CPU) Skip(from, to uint64) {}
