package workload

import (
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/mem"
)

func TestOceanRejectsOversizedGrid(t *testing.T) {
	l := mem.DefaultLayout(64)
	_, err := BuildOcean(l, codegen.DS, OceanParams{
		Threads: 64, RowsPerThread: 200, Iters: 1, // grid 12802
	})
	if err == nil || !strings.Contains(err.Error(), "too large") {
		t.Fatalf("err = %v", err)
	}
}

func TestGridGeometryHelpers(t *testing.T) {
	if (OceanParams{Threads: 4, RowsPerThread: 4}).Grid() != 18 {
		t.Fatal("ocean grid")
	}
	if (WaterParams{Threads: 4, MolsPerThread: 3}).Mols() != 12 {
		t.Fatal("water mols")
	}
}

func TestSpecSymbolsDefined(t *testing.T) {
	l := mem.DefaultLayout(2)
	ocean, err := BuildOcean(l, codegen.DS, OceanParams{Threads: 2, RowsPerThread: 2, Iters: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, sym := range []string{"ocean_gridA", "ocean_gridB", "rt_finished"} {
		if _, ok := ocean.Image.Symbols[sym]; !ok {
			t.Errorf("ocean image missing symbol %q", sym)
		}
	}
	water, err := BuildWater(l, codegen.DS, WaterParams{Threads: 2, MolsPerThread: 2, Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := water.Image.Symbols["water_pos"]; !ok {
		t.Error("water image missing water_pos")
	}
}

func TestOceanReferenceConverges(t *testing.T) {
	// Physical sanity of the reference solver: with hot borders the
	// interior warms monotonically toward the boundary value.
	p := OceanParams{Threads: 2, RowsPerThread: 3, Iters: 20}
	got := oceanReference(p)
	g := p.Grid()
	center := got[(g/2)*g+g/2]
	if center <= 0 || center >= 1 {
		t.Fatalf("center after 20 sweeps = %v, want in (0,1)", center)
	}
	shorter := oceanReference(OceanParams{Threads: 2, RowsPerThread: 3, Iters: 2})
	if center <= shorter[(g/2)*g+g/2] {
		t.Fatal("more sweeps did not warm the interior further")
	}
}

func TestWaterReferenceMovesMolecules(t *testing.T) {
	p := WaterParams{Threads: 2, MolsPerThread: 3, Steps: 3}
	got := waterReference(p)
	init := waterInitPos(p.Mols())
	moved := false
	for i := range got {
		if got[i] != init[i] {
			moved = true
		}
	}
	if !moved {
		t.Fatal("no molecule moved")
	}
}
