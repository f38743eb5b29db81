package workload

import (
	"fmt"
	"math"

	"repro/internal/codegen"
	"repro/internal/mem"
)

// LUParams configures the LU-class kernel: an in-place, unpivoted
// right-looking LU factorization of a dense float32 matrix with
// row-cyclic distribution (row i belongs to thread i mod P) and one
// barrier per elimination step. It reproduces the sharing pattern of
// SPLASH-2 LU: at step k every thread reads the freshly produced pivot
// row k (single producer, all consumers) and updates only its own rows
// — a one-to-all sharing pattern between barriers, complementing
// Ocean's neighbour sharing and Water's lock-based accumulation. It is
// the repository's third verified workload (an extension beyond the
// paper's two).
type LUParams struct {
	Threads int
	// RowsPerThread rows are owned by each thread; the matrix is
	// N = Threads*RowsPerThread square.
	RowsPerThread int
}

// N returns the matrix dimension.
func (p LUParams) N() int { return p.Threads * p.RowsPerThread }

// luInit returns the deterministic, diagonally dominant input matrix
// (dominance keeps the unpivoted factorization well behaved).
func luInit(n int) []float32 {
	a := make([]float32, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a[i*n+j] = float32((i*7+j*13)%19) * 0.0625
		}
		a[i*n+i] = float32(n) + 1
	}
	return a
}

// luReference factorizes on the host with the generated code's exact
// per-element float32 operation order.
func luReference(p LUParams) []float32 {
	n := p.N()
	a := luInit(n)
	for k := 0; k < n-1; k++ {
		for i := k + 1; i < n; i++ {
			l := a[i*n+k] / a[k*n+k]
			a[i*n+k] = l
			for j := k + 1; j < n; j++ {
				a[i*n+j] = a[i*n+j] - l*a[k*n+j]
			}
		}
	}
	return a
}

// BuildLU assembles the kernel.
func BuildLU(l mem.Layout, mode codegen.SchedMode, p LUParams) (*Spec, error) {
	n := p.N()
	if n < 2 {
		return nil, fmt.Errorf("workload: LU needs a matrix of at least 2x2")
	}
	if n*4 > 32767 {
		return nil, fmt.Errorf("workload: LU matrix %d too large for row offsets", n)
	}
	b := codegen.NewBuilder(l.CodeBase)
	rt := codegen.NewRuntime(b, l, mode, p.Threads)

	matBase := rt.Shared().Alloc(uint32(4*n*n), 32)
	bar := rt.NewBarrier()

	const (
		sTid  = codegen.S0
		sN    = codegen.S1
		sK    = codegen.S2
		sMat  = codegen.S3
		sBar  = codegen.S4
		sNT   = codegen.S5
		sI    = codegen.S6
		sRowK = codegen.S7
	)

	b.Label("lu_main")
	b.Mv(sTid, codegen.A0)
	b.Li(sN, uint32(n))
	b.Li(sMat, matBase)
	b.Li(sBar, bar)
	b.Li(sNT, uint32(p.Threads))
	b.Li(sK, 0)

	b.Label("lu_step")
	// sRowK = &A[k][0]
	b.Li(codegen.T0, uint32(4*n))
	b.Mul(sRowK, sK, codegen.T0)
	b.Add(sRowK, sRowK, sMat)
	// First row of mine with index > k: i = k+1 rounded up to ≡ tid (mod P).
	//   i = k + 1 + ((tid - (k+1)) mod P)
	b.Addi(codegen.T0, sK, 1)
	b.Sub(codegen.T1, sTid, codegen.T0)
	b.Rem(codegen.T1, codegen.T1, sNT)
	// Go's rem can be negative: normalize into [0, P).
	b.Blt(codegen.R0, codegen.T1, "lu_mod_ok")
	b.Beq(codegen.T1, codegen.R0, "lu_mod_ok")
	b.Add(codegen.T1, codegen.T1, sNT)
	b.Label("lu_mod_ok")
	b.Add(sI, codegen.T0, codegen.T1)

	b.Label("lu_irow")
	b.Bge(sI, sN, "lu_idone")
	// T2 = &A[i][0]; T3 = &A[i][k]; pivot = A[k][k].
	b.Li(codegen.T0, uint32(4*n))
	b.Mul(codegen.T2, sI, codegen.T0)
	b.Add(codegen.T2, codegen.T2, sMat)
	b.Slli(codegen.T4, sK, 2)
	b.Add(codegen.T3, codegen.T2, codegen.T4)  // &A[i][k]
	b.Add(codegen.T5, sRowK, codegen.T4)       // &A[k][k]
	b.Flw(codegen.F1, 0, codegen.T3)           // A[i][k]
	b.Flw(codegen.F2, 0, codegen.T5)           // pivot
	b.Fdiv(codegen.F1, codegen.F1, codegen.F2) // l
	b.Fsw(codegen.F1, 0, codegen.T3)
	// Column loop: j = k+1 .. n-1. T3/T5 walk A[i][j] and A[k][j].
	b.Sub(codegen.T6, sN, sK)
	b.Addi(codegen.T6, codegen.T6, -1) // count = n-1-k
	b.Beq(codegen.T6, codegen.R0, "lu_inext")
	b.Label("lu_jcol")
	b.Addi(codegen.T3, codegen.T3, 4)
	b.Addi(codegen.T5, codegen.T5, 4)
	b.Flw(codegen.F3, 0, codegen.T5) // A[k][j]
	b.Fmul(codegen.F3, codegen.F1, codegen.F3)
	b.Flw(codegen.F4, 0, codegen.T3) // A[i][j]
	b.Fsub(codegen.F4, codegen.F4, codegen.F3)
	b.Fsw(codegen.F4, 0, codegen.T3)
	b.Addi(codegen.T6, codegen.T6, -1)
	b.Bne(codegen.T6, codegen.R0, "lu_jcol")
	b.Label("lu_inext")
	b.Add(sI, sI, sNT)
	b.J("lu_irow")

	b.Label("lu_idone")
	b.Mv(codegen.A0, sBar)
	b.Jal("rt_barrier")
	b.Addi(sK, sK, 1)
	b.Addi(codegen.T0, sN, -1)
	b.Blt(sK, codegen.T0, "lu_step")
	b.J("rt_thread_exit")

	img, err := buildImage(rt, "lu_main", p.Threads)
	if err != nil {
		return nil, err
	}
	for i, v := range luInit(n) {
		img.WriteFloat(matBase+uint32(4*i), v)
	}
	img.Define("lu_matrix", matBase)

	want := luReference(p)
	return &Spec{
		Name:    "lu",
		Image:   img,
		Threads: p.Threads,
		Check: func(s *mem.Space) error {
			for i := 0; i < n*n; i++ {
				got := s.ReadFloat(matBase + uint32(4*i))
				if math.Float32bits(got) != math.Float32bits(want[i]) {
					return fmt.Errorf("workload: lu[%d][%d] = %g, want %g", i/n, i%n, got, want[i])
				}
			}
			return nil
		},
	}, nil
}
