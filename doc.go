// Package repro is a from-scratch Go reproduction of "Comparison of
// memory write policies for NoC based Multicore Cache Coherent
// Systems" (Gironnet de Massas & Pétrot, DATE 2008).
//
// The library builds cycle-approximate models of NoC-based shared-
// memory multicores (4–64 SR32 processors, split 4 KiB direct-mapped
// caches, full-map directory coherence, 2–67 memory banks) and
// compares the paper's two memory write policies head to head:
// write-through invalidate (WTI) and write-back MESI (WB).
//
// Start with internal/core to build and run a platform, internal/exp
// to regenerate the paper's tables and figures, and the runnable
// programs under cmd/. DESIGN.md maps every subsystem
// and experiment; EXPERIMENTS.md records paper-versus-measured results.
package repro
