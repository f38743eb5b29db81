package workload

import (
	"repro/internal/codegen"
	"repro/internal/mem"
)

// CounterParams configures the lock-counter microbenchmark: every
// thread increments one shared counter incs times under a global
// spin-lock, crosses a barrier, and exits. The final counter value is
// exactly threads*incs if and only if the coherence protocol, the
// atomic swap, and the runtime are correct — it is the repository's
// canonical end-to-end correctness workload.
type CounterParams struct {
	Threads int
	Incs    int
}

// BuildCounter assembles the microbenchmark for the given layout and
// scheduling mode.
func BuildCounter(l mem.Layout, mode codegen.SchedMode, p CounterParams) (*Spec, error) {
	b := codegen.NewBuilder(l.CodeBase)
	rt := codegen.NewRuntime(b, l, mode, p.Threads)

	counter := rt.Shared().Alloc(4, 4)
	// The lock lives in its own cache block so lock and counter
	// traffic are distinguishable in the stats.
	lock := rt.Shared().Alloc(4, 32)
	bar := rt.NewBarrier()

	b.Label("counter_main")
	b.Li(codegen.S0, uint32(p.Incs))
	b.Li(codegen.S1, lock)
	b.Li(codegen.S2, counter)
	b.Label("counter_loop")
	b.Beq(codegen.S0, codegen.R0, "counter_done")
	b.SpinLock(codegen.S1, codegen.T0)
	b.Lw(codegen.T1, 0, codegen.S2)
	b.Addi(codegen.T1, codegen.T1, 1)
	b.Sw(codegen.T1, 0, codegen.S2)
	b.SpinUnlock(codegen.S1)
	b.Addi(codegen.S0, codegen.S0, -1)
	b.J("counter_loop")
	b.Label("counter_done")
	b.Li(codegen.A0, bar)
	b.Jal("rt_barrier")
	b.J("rt_thread_exit")

	img, err := buildImage(rt, "counter_main", p.Threads)
	if err != nil {
		return nil, err
	}
	img.WriteWord(counter, 0)
	img.WriteWord(lock, 0)
	img.Define("counter", counter)

	want := uint32(p.Threads * p.Incs)
	return &Spec{
		Name:    "counter",
		Image:   img,
		Threads: p.Threads,
		Check: func(s *mem.Space) error {
			return checkWord(s, counter, want, "shared counter")
		},
	}, nil
}
