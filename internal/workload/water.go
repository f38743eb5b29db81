package workload

import (
	"fmt"
	"math"

	"repro/internal/codegen"
	"repro/internal/mem"
)

// WaterParams configures the Water-class kernel: an N-body molecular
// step reproducing the sharing pattern of SPLASH-2 Water (n-squared):
// all-pairs force evaluation over mostly-read shared positions, with
// per-molecule spin-locks protecting force accumulation, and barriered
// position updates. Forces are accumulated in 16.16 fixed point so the
// result is independent of lock-acquisition order, which keeps the run
// bitwise verifiable against the host reference under every scheduler
// interleaving (documented substitution: the paper's Water accumulates
// in floating point, whose final bits depend on arrival order).
type WaterParams struct {
	Threads int
	// MolsPerThread molecules are owned by each thread.
	MolsPerThread int
	// Steps is the number of simulated time steps.
	Steps int
}

// Mols returns the molecule count.
func (p WaterParams) Mols() int { return p.Threads * p.MolsPerThread }

const waterScale = 65536.0 // 16.16 fixed point

// waterInitPos returns the deterministic initial positions.
func waterInitPos(n int) []float32 {
	pos := make([]float32, 3*n)
	for i := 0; i < n; i++ {
		pos[3*i] = float32(i%5) * 0.37
		pos[3*i+1] = float32((i/5)%5) * 0.71
		pos[3*i+2] = float32(i/25) * 0.53
	}
	return pos
}

// waterReference runs the kernel on the host with the generated code's
// exact per-pair float32 operation order.
func waterReference(p WaterParams) []float32 {
	n := p.Mols()
	pos := waterInitPos(n)
	force := make([]int32, 3*n)
	for step := 0; step < p.Steps; step++ {
		for i := range force {
			force[i] = 0
		}
		for i := 0; i < n; i++ {
			xi, yi, zi := pos[3*i], pos[3*i+1], pos[3*i+2]
			for j := i + 1; j < n; j++ {
				dx := xi - pos[3*j]
				dy := yi - pos[3*j+1]
				dz := zi - pos[3*j+2]
				r2 := dx*dx + dy*dy
				r2 = r2 + dz*dz
				r2 = r2 + 1.0
				s := float32(waterScale) / r2
				fx := int32(dx * s)
				fy := int32(dy * s)
				fz := int32(dz * s)
				force[3*i] += fx
				force[3*i+1] += fy
				force[3*i+2] += fz
				force[3*j] -= fx
				force[3*j+1] -= fy
				force[3*j+2] -= fz
			}
		}
		for i := 0; i < n; i++ {
			for c := 0; c < 3; c++ {
				f := float32(force[3*i+c]) * float32(0.001/waterScale)
				pos[3*i+c] += f
			}
		}
	}
	return pos
}

// BuildWater assembles the kernel. Molecules are distributed to
// threads round-robin (i % threads) so the triangular pair loop stays
// balanced.
func BuildWater(l mem.Layout, mode codegen.SchedMode, p WaterParams) (*Spec, error) {
	n := p.Mols()
	b := codegen.NewBuilder(l.CodeBase)
	rt := codegen.NewRuntime(b, l, mode, p.Threads)

	posBase := rt.Shared().Alloc(uint32(12*n), 32)
	forceBase := rt.Shared().Alloc(uint32(12*n), 32)
	lockBase := rt.Shared().Alloc(uint32(4*n), 32)
	cOne := rt.Shared().Alloc(4, 4)
	cScale := rt.Shared().Alloc(4, 4)
	cDt := rt.Shared().Alloc(4, 4)
	bar := rt.NewBarrier()

	const (
		sTid   = codegen.S0
		sN     = codegen.S1
		sStep  = codegen.S2
		sPos   = codegen.S3
		sForce = codegen.S4
		sLock  = codegen.S5
		sBar   = codegen.S6
		sI     = codegen.S7
		sNT    = codegen.S8
	)

	b.Label("water_main")
	b.Mv(sTid, codegen.A0)
	b.Li(sN, uint32(n))
	b.Li(sStep, uint32(p.Steps))
	b.Li(sPos, posBase)
	b.Li(sForce, forceBase)
	b.Li(sLock, lockBase)
	b.Li(sBar, bar)
	b.Li(sNT, uint32(p.Threads))

	b.Label("water_step")
	b.Beq(sStep, codegen.R0, "water_done")
	// Reload float constants (not preserved across barriers).
	b.Li(codegen.T0, cOne)
	b.Flw(codegen.F9, 0, codegen.T0)
	b.Li(codegen.T0, cScale)
	b.Flw(codegen.F10, 0, codegen.T0)

	// Pair phase: for i = tid; i < n; i += threads.
	b.Mv(sI, sTid)
	b.Label("water_iloop")
	b.Bge(sI, sN, "water_idone")
	// f1..f3 = pos[i].
	b.Li(codegen.T0, 12)
	b.Mul(codegen.T0, sI, codegen.T0)
	b.Add(codegen.T0, codegen.T0, sPos)
	b.Flw(codegen.F1, 0, codegen.T0)
	b.Flw(codegen.F2, 4, codegen.T0)
	b.Flw(codegen.F3, 8, codegen.T0)
	// T0 = j = i+1.
	b.Addi(codegen.T0, sI, 1)
	b.Label("water_jloop")
	b.Bge(codegen.T0, sN, "water_jdone")
	// T1 = &pos[j].
	b.Li(codegen.T1, 12)
	b.Mul(codegen.T1, codegen.T0, codegen.T1)
	b.Add(codegen.T1, codegen.T1, sPos)
	b.Flw(codegen.F4, 0, codegen.T1)
	b.Flw(codegen.F5, 4, codegen.T1)
	b.Flw(codegen.F6, 8, codegen.T1)
	b.Fsub(codegen.F4, codegen.F1, codegen.F4) // dx
	b.Fsub(codegen.F5, codegen.F2, codegen.F5) // dy
	b.Fsub(codegen.F6, codegen.F3, codegen.F6) // dz
	b.Fmul(codegen.F7, codegen.F4, codegen.F4)
	b.Fmul(codegen.F8, codegen.F5, codegen.F5)
	b.Fadd(codegen.F7, codegen.F7, codegen.F8)
	b.Fmul(codegen.F8, codegen.F6, codegen.F6)
	b.Fadd(codegen.F7, codegen.F7, codegen.F8)
	b.Fadd(codegen.F7, codegen.F7, codegen.F9)  // + 1.0
	b.Fdiv(codegen.F7, codegen.F10, codegen.F7) // scale / r2
	b.Fmul(codegen.F4, codegen.F4, codegen.F7)
	b.Fmul(codegen.F5, codegen.F5, codegen.F7)
	b.Fmul(codegen.F6, codegen.F6, codegen.F7)
	b.CvtSW(codegen.T2, codegen.F4)
	b.CvtSW(codegen.T3, codegen.F5)
	b.CvtSW(codegen.T4, codegen.F6)
	// Accumulate +f into molecule i under lock[i].
	b.Slli(codegen.T5, sI, 2)
	b.Add(codegen.T5, codegen.T5, sLock)
	b.SpinLock(codegen.T5, codegen.T6)
	b.Li(codegen.T7, 12)
	b.Mul(codegen.T7, sI, codegen.T7)
	b.Add(codegen.T7, codegen.T7, sForce)
	b.Lw(codegen.T6, 0, codegen.T7)
	b.Add(codegen.T6, codegen.T6, codegen.T2)
	b.Sw(codegen.T6, 0, codegen.T7)
	b.Lw(codegen.T6, 4, codegen.T7)
	b.Add(codegen.T6, codegen.T6, codegen.T3)
	b.Sw(codegen.T6, 4, codegen.T7)
	b.Lw(codegen.T6, 8, codegen.T7)
	b.Add(codegen.T6, codegen.T6, codegen.T4)
	b.Sw(codegen.T6, 8, codegen.T7)
	b.SpinUnlock(codegen.T5)
	// Accumulate -f into molecule j under lock[j] (i < j: safe order).
	b.Slli(codegen.T5, codegen.T0, 2)
	b.Add(codegen.T5, codegen.T5, sLock)
	b.SpinLock(codegen.T5, codegen.T6)
	b.Li(codegen.T7, 12)
	b.Mul(codegen.T7, codegen.T0, codegen.T7)
	b.Add(codegen.T7, codegen.T7, sForce)
	b.Lw(codegen.T6, 0, codegen.T7)
	b.Sub(codegen.T6, codegen.T6, codegen.T2)
	b.Sw(codegen.T6, 0, codegen.T7)
	b.Lw(codegen.T6, 4, codegen.T7)
	b.Sub(codegen.T6, codegen.T6, codegen.T3)
	b.Sw(codegen.T6, 4, codegen.T7)
	b.Lw(codegen.T6, 8, codegen.T7)
	b.Sub(codegen.T6, codegen.T6, codegen.T4)
	b.Sw(codegen.T6, 8, codegen.T7)
	b.SpinUnlock(codegen.T5)
	b.Addi(codegen.T0, codegen.T0, 1)
	b.J("water_jloop")
	b.Label("water_jdone")
	b.Add(sI, sI, sNT)
	b.J("water_iloop")
	b.Label("water_idone")
	b.Mv(codegen.A0, sBar)
	b.Jal("rt_barrier")

	// Update phase: pos[i] += force[i]*dt/scale; zero the forces.
	b.Li(codegen.T0, cDt)
	b.Flw(codegen.F11, 0, codegen.T0)
	b.Mv(sI, sTid)
	b.Label("water_uloop")
	b.Bge(sI, sN, "water_udone")
	b.Li(codegen.T1, 12)
	b.Mul(codegen.T1, sI, codegen.T1)
	b.Add(codegen.T2, codegen.T1, sForce) // &force[i]
	b.Add(codegen.T3, codegen.T1, sPos)   // &pos[i]
	for c := int32(0); c < 3; c++ {
		b.Lw(codegen.T4, 4*c, codegen.T2)
		b.CvtWS(codegen.F4, codegen.T4)
		b.Fmul(codegen.F4, codegen.F4, codegen.F11)
		b.Flw(codegen.F5, 4*c, codegen.T3)
		b.Fadd(codegen.F5, codegen.F5, codegen.F4)
		b.Fsw(codegen.F5, 4*c, codegen.T3)
		b.Sw(codegen.R0, 4*c, codegen.T2)
	}
	b.Add(sI, sI, sNT)
	b.J("water_uloop")
	b.Label("water_udone")
	b.Mv(codegen.A0, sBar)
	b.Jal("rt_barrier")
	b.Addi(sStep, sStep, -1)
	b.J("water_step")

	b.Label("water_done")
	b.J("rt_thread_exit")

	img, err := buildImage(rt, "water_main", p.Threads)
	if err != nil {
		return nil, err
	}
	img.WriteFloat(cOne, 1.0)
	img.WriteFloat(cScale, waterScale)
	img.WriteFloat(cDt, 0.001/waterScale)
	for i, v := range waterInitPos(n) {
		img.WriteFloat(posBase+uint32(4*i), v)
	}
	for i := 0; i < 3*n; i++ {
		img.WriteWord(forceBase+uint32(4*i), 0)
	}
	for i := 0; i < n; i++ {
		img.WriteWord(lockBase+uint32(4*i), 0)
	}
	img.Define("water_pos", posBase)

	want := waterReference(p)
	return &Spec{
		Name:    "water",
		Image:   img,
		Threads: p.Threads,
		Check: func(s *mem.Space) error {
			for i := 0; i < 3*n; i++ {
				got := s.ReadFloat(posBase + uint32(4*i))
				if math.Float32bits(got) != math.Float32bits(want[i]) {
					return fmt.Errorf("workload: water pos[%d] = %g, want %g", i, got, want[i])
				}
			}
			return nil
		},
	}, nil
}
