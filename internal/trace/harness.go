package trace

import (
	"fmt"

	"repro/internal/codegen"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/noc"
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
// think time between completed operations.
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

// NewCPU builds a trace CPU issuing n operations.
func NewCPU(id int, dc coherence.DataCache, gen Generator, ops uint64, think int) *CPU {
	return &CPU{ID: id, dc: dc, gen: gen, left: ops, think: uint64(think)}
}

// Done reports whether the stream is exhausted.
func (c *CPU) Done() bool { return c.done }

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

// Harness couples trace CPUs to a full platform (whose interpreted
// CPUs halt immediately and stay out of the way).
type Harness struct {
	Sys  *core.System
	CPUs []*CPU
}

// NewHarness builds a platform for cfg and attaches one trace CPU per
// simulated CPU, each driving its own data cache with gen(i).
func NewHarness(cfg core.Config, gen func(cpu int) Generator, ops uint64, think int) (*Harness, error) {
	l := mem.DefaultLayout(cfg.NumCPUs)
	b := codegen.NewBuilder(l.CodeBase)
	b.Halt()
	code, err := b.Bytes()
	if err != nil {
		return nil, err
	}
	img := mem.NewImage()
	img.AddSegment(l.CodeBase, code)
	img.Entry = l.CodeBase
	sys, err := core.Build(cfg, img)
	if err != nil {
		return nil, err
	}
	h := &Harness{Sys: sys}
	for i := 0; i < cfg.NumCPUs; i++ {
		tc := NewCPU(i, sys.DCaches[i], gen(i), ops, think)
		h.CPUs = append(h.CPUs, tc)
		sys.Register("trace", tc)
	}
	return h, nil
}

// Result holds a trace run's outcome.
type Result struct {
	Cycles uint64
	Net    noc.Stats
	CPUs   []CPUStats
}

// Run replays every stream to completion and drains the platform.
func (h *Harness) Run(maxCycles uint64) (*Result, error) {
	if maxCycles == 0 {
		maxCycles = 500_000_000
	}
	done := func() bool {
		for _, c := range h.CPUs {
			if !c.Done() {
				return false
			}
		}
		return true
	}
	cycles, err := h.Sys.Engine.Run(maxCycles, done)
	if err != nil {
		return nil, err
	}
	if _, err := h.Sys.Engine.Run(1_000_000, h.Sys.Quiescent); err != nil {
		return nil, fmt.Errorf("trace: drain: %w", err)
	}
	r := &Result{Cycles: cycles, Net: h.Sys.Net.Stats()}
	for _, c := range h.CPUs {
		r.CPUs = append(r.CPUs, *c.Stats())
	}
	return r, nil
}
