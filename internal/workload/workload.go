// Package workload builds the simulated programs: the Ocean-, Water-
// and LU-class kernels standing in for the paper's SPLASH-2 benchmarks
// and a lock-counter microbenchmark used for correctness. Each builder
// returns a loadable image plus enough host-side information to verify
// the run's results against a Go reference model.
package workload

import (
	"fmt"

	"repro/internal/codegen"
	"repro/internal/mem"
)

// Spec identifies a built workload and what it expects.
type Spec struct {
	Name    string
	Image   *mem.Image
	Threads int
	// Check verifies the final memory state; nil when the workload has
	// no host-side reference.
	Check func(s *mem.Space) error
}

// checkWord asserts one word of final memory.
func checkWord(s *mem.Space, addr uint32, want uint32, what string) error {
	if got := s.ReadWord(addr); got != want {
		return fmt.Errorf("workload: %s = %d, want %d", what, got, want)
	}
	return nil
}

// buildImage adds n threads at label, thread t homed on CPU t mod the
// CPU count — one thread per CPU in every experiment, matching the
// paper's per-processor-constant workload — and builds the image.
func buildImage(rt *codegen.Runtime, label string, n int) (*mem.Image, error) {
	for t := 0; t < n; t++ {
		rt.AddThread(label, uint32(t), t%rt.Layout.NumCPUs)
	}
	return rt.BuildImage()
}
