package core_test

import (
	"fmt"
	"log"

	"repro/internal/codegen"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/workload"
)

// Example builds the paper's distributed platform, runs the verified
// lock-counter program under write-through invalidate, and prints the
// exact final counter value — the smallest end-to-end use of the
// library.
func Example() {
	const cpus = 4
	spec, err := workload.BuildCounter(
		mem.DefaultLayout(cpus), codegen.DS,
		workload.CounterParams{Threads: cpus, Incs: 25})
	if err != nil {
		log.Fatal(err)
	}
	sys, err := core.Build(core.DefaultConfig(coherence.WTI, mem.Arch2, cpus), spec.Image)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("counter =", sys.Space.ReadWord(spec.Image.Symbols["counter"]))
	// Output: counter = 100
}

// ExampleConfig_Describe shows the Table-2 style configuration echo.
func ExampleConfig_Describe() {
	cfg := core.DefaultConfig(coherence.WBMESI, mem.Arch1, 16)
	fmt.Println(cfg.Describe())
	// Output: protocol=WB arch=arch1 cpus=16 banks=2 dcache=4096B icache=4096B block=32B assoc=direct wbuf=8w noc=gmn
}
