package exp

import (
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/stats"
)

func TestTable1WTI(t *testing.T) {
	tb, err := Table1(coherence.WTI)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, r := range tb.Rows() {
		rows[r[0]] = r
	}
	// Paper's Table 1 WTI column: read hit 0, read miss 2 (dirty does
	// not exist), writes non-blocking.
	expectPath := map[string]string{
		"read hit":                     "0",
		"read miss (clean)":            "2",
		"read miss (remote dirty)":     "2",
		"write miss (no sharers)":      "2",
		"write miss (2 sharers)":       "4",
		"write hit S (1 other sharer)": "4",
	}
	for name, want := range expectPath { //lint:allow maprange — each row is checked on its own
		r, ok := rows[name]
		if !ok {
			t.Fatalf("missing row %q", name)
		}
		if r[2] != want {
			t.Errorf("%s: path hops = %s, want %s", name, r[2], want)
		}
	}
	// Every WTI write is non-blocking (blocking cycles 0).
	for _, name := range []string{"write miss (no sharers)", "write miss (2 sharers)",
		"write hit S (1 other sharer)", "write hit E", "write hit M"} {
		if rows[name][3] != "0" {
			t.Errorf("%s: blocking = %s, want 0 (WTI writes are posted)", name, rows[name][3])
		}
	}
}

func TestTable1WB(t *testing.T) {
	tb, err := Table1(coherence.WBMESI)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, r := range tb.Rows() {
		rows[r[0]] = r
	}
	expectPath := map[string]string{
		"read hit":                     "0",
		"read miss (clean)":            "2",
		"read miss (remote dirty)":     "4",
		"write miss (no sharers)":      "2",
		"write miss (2 sharers)":       "4",
		"write hit S (1 other sharer)": "4",
		"write hit E":                  "0",
		"write hit M":                  "0",
	}
	for name, want := range expectPath { //lint:allow maprange — each row is checked on its own
		if rows[name][2] != want {
			t.Errorf("%s: path hops = %s, want %s", name, rows[name][2], want)
		}
	}
	// MESI writes that need the directory block the processor.
	for _, name := range []string{"write miss (no sharers)", "write miss (2 sharers)",
		"write hit S (1 other sharer)", "read miss (remote dirty)"} {
		if rows[name][3] == "0" {
			t.Errorf("%s: blocking = 0, want > 0 (MESI exclusivity blocks)", name)
		}
	}
	// E/M hits are free.
	for _, name := range []string{"write hit E", "write hit M", "read hit"} {
		if rows[name][1] != "0" || rows[name][3] != "0" {
			t.Errorf("%s: not free: %v", name, rows[name])
		}
	}
}

func TestTable2(t *testing.T) {
	tb := Table2([]int{4, 64})
	if tb.NumRows() != 2 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	r := tb.Rows()[1]
	if r[0] != "64" || r[1] != "2" || r[2] != "67" {
		t.Fatalf("64-cpu row = %v", r)
	}
}

func TestGridAndFiguresQuick(t *testing.T) {
	sizes := []int{2, 4}
	grid := mustRun(t, gridRuns(sizes), 0)
	if len(grid) != 2*2*2*len(sizes) {
		t.Fatalf("grid has %d entries", len(grid))
	}
	f4 := Fig4(grid, sizes)
	f5 := Fig5(grid, sizes)
	f6 := Fig6(grid, sizes)
	if f4.NumRows() != 8 || f5.NumRows() != 8 || f6.NumRows() != 8 {
		t.Fatalf("figure rows: %d %d %d", f4.NumRows(), f5.NumRows(), f6.NumRows())
	}
	// Shape check (paper section 6): the protocols stay within the
	// same order of magnitude in both time and traffic.
	for _, r := range grid { //lint:allow maprange — each result is checked on its own
		if r.Cycles == 0 || r.TrafficBytes() == 0 {
			t.Fatal("empty result in grid")
		}
	}
	for _, cell := range [][2]Run{
		{{Bench: Ocean, Protocol: coherence.WTI, Arch: mem.Arch2, NumCPUs: 4},
			{Bench: Ocean, Protocol: coherence.WBMESI, Arch: mem.Arch2, NumCPUs: 4}},
		{{Bench: Water, Protocol: coherence.WTI, Arch: mem.Arch2, NumCPUs: 4},
			{Bench: Water, Protocol: coherence.WBMESI, Arch: mem.Arch2, NumCPUs: 4}},
	} {
		wti, wb := grid[cell[0]], grid[cell[1]]
		ratio := float64(wti.Cycles) / float64(wb.Cycles)
		if ratio < 0.1 || ratio > 10 {
			t.Errorf("%s: WTI/WB time ratio %.2f out of band", cell[0].Key(), ratio)
		}
		tr := float64(wti.TrafficBytes()) / float64(wb.TrafficBytes())
		if tr < 0.1 || tr > 10 {
			t.Errorf("%s: WTI/WB traffic ratio %.2f out of band", cell[0].Key(), tr)
		}
	}
}

// ablation runs an experiment's points at test size (the table's
// entries pin n=16) and renders them.
func ablation(t *testing.T, runs []Run, render func([]Run, Results) *stats.Table) *stats.Table {
	t.Helper()
	return render(runs, mustRun(t, runs, 0))
}

func wantRows(t *testing.T, tb *stats.Table, rows int) {
	t.Helper()
	if tb.NumRows() != rows {
		t.Fatalf("%s: rows = %d, want %d", tb.Title, tb.NumRows(), rows)
	}
}

func TestAblationsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation runs")
	}
	wantRows(t, ablation(t, meshRuns(4), renderMesh), 2)
	wantRows(t, ablation(t, strictSCRuns(4), renderStrictSC), 2)
	wantRows(t, ablation(t, bestWorstRuns(4), renderBestWorst), 2)
}

func TestExecuteVerifiesResults(t *testing.T) {
	// Execute must propagate the host-reference verification.
	res, err := Execute(Run{
		Bench: Ocean, Protocol: coherence.WBMESI, Arch: mem.Arch1, NumCPUs: 2,
	}, QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if res.DataStallPercent() <= 0 || res.DataStallPercent() >= 100 {
		t.Fatalf("stall%% = %v", res.DataStallPercent())
	}
}

func TestAblationBusShowsTheCrossover(t *testing.T) {
	// The paper's thesis in one assertion: WTI's position relative to
	// WB must be strictly worse on the shared bus than on the NoC.
	tb := ablation(t, busRuns([]int{4}), renderBus)
	wantRows(t, tb, 2)
	var busRatio, nocRatio float64
	for _, r := range tb.Rows() {
		var v float64
		if _, err := fmt.Sscanf(r[4], "%f", &v); err != nil {
			t.Fatal(err)
		}
		if r[0] == "bus" {
			busRatio = v
		} else {
			nocRatio = v
		}
	}
	if busRatio <= nocRatio {
		t.Fatalf("WTI/WB ratio on bus (%.2f) not worse than on NoC (%.2f)", busRatio, nocRatio)
	}
}

func TestAblationDirLimitedQuick(t *testing.T) {
	wantRows(t, ablation(t, dirRuns(4), renderDir), 8)
}

func TestAblationScaleQuick(t *testing.T) {
	wantRows(t, ablation(t, scaleRuns(4, []int{2, 4}), renderScale), 2)
}

func TestAblationWriteUpdateQuick(t *testing.T) {
	wantRows(t, ablation(t, writeUpdateRuns(4), renderWriteUpdate), 6)
}

func TestAblationC2CQuick(t *testing.T) {
	wantRows(t, ablation(t, c2cRuns(4), renderC2C), 2)
}

func TestAblationWaysQuick(t *testing.T) {
	wantRows(t, ablation(t, waysRuns(4), renderWays), 6)
}

func TestAblationMOESIQuick(t *testing.T) {
	wantRows(t, ablation(t, moesiRuns(4), renderMOESI), 6)
}

// TestFaultCampaignTable runs the fault experiment as sweep does, on
// one spec: the zero-fault baseline rows, then the spec's, whose drops
// and retransmissions the table must show.
func TestFaultCampaignTable(t *testing.T) {
	const spec = "drop=0.01,seed=3"
	sel, err := Select("fault")
	if err != nil {
		t.Fatal(err)
	}
	tabs, err := sel[0].Tables(Params{Scale: QuickScale(), Faults: []string{spec}, Jobs: 1}, Results{})
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, tabs[0], 4)
	for i, r := range tabs[0].Rows() {
		proto, faulted, campaign := []string{"WTI", "WB"}[i%2], i >= 2, "(none)"
		if faulted {
			campaign = spec
		}
		if r[0] != campaign || r[1] != proto || (r[4] != "0") != faulted || (r[5] != "0") != faulted {
			t.Errorf("row %d = %q; want %s under %q, with drops and retransmissions only under faults", i, r, proto, campaign)
		}
	}
}

// TestRunKeyNamesEveryField pins Key's two promises: the figure grid's
// keys (and with them the -obs-dir file names) are the four-segment
// form they always were, and two Runs that differ in any one field
// have different keys.
func TestRunKeyNamesEveryField(t *testing.T) {
	base := Run{Bench: Ocean, Protocol: coherence.WTI, Arch: mem.Arch2, NumCPUs: 16}
	if got, want := base.Key(), "ocean/WTI/arch2/n16"; got != want {
		t.Fatalf("grid key = %q, want %q", got, want)
	}
	variants := map[string]func(r *Run){
		"Bench":       func(r *Run) { r.Bench = Water },
		"Protocol":    func(r *Run) { r.Protocol = coherence.WBMESI },
		"Arch":        func(r *Run) { r.Arch = mem.Arch1 },
		"NumCPUs":     func(r *Run) { r.NumCPUs = 4 },
		"NoC":         func(r *Run) { r.NoC = core.MeshNet },
		"StrictSC":    func(r *Run) { r.StrictSC = true },
		"C2C":         func(r *Run) { r.C2C = true },
		"Ways":        func(r *Run) { r.Ways = 2 },
		"DirPointers": func(r *Run) { r.DirPointers = 2 },
		"Scale":       func(r *Run) { r.Scale = Scale{OceanRows: 8, OceanIters: 3} },
		"Fault":       func(r *Run) { r.Fault = "drop=0.002,seed=42" },
	}
	if n := reflect.TypeOf(base).NumField(); n != len(variants) {
		t.Fatalf("Run has %d fields, the table varies %d: add the new field here and to Key", n, len(variants))
	}
	// Every other bench, and the size the scale segment names only when
	// set.
	for _, b := range []Bench{Counter, SparseWrites, PrivateRMW, ProdCons} {
		b := b
		variants["Bench="+string(b)] = func(r *Run) { r.Bench = b }
	}
	variants["Scale.CounterIncs"] = func(r *Run) { r.Scale = Scale{OceanRows: 8, OceanIters: 3, CounterIncs: 2} }
	if n := reflect.TypeOf(Scale{}).NumField(); n != 5 {
		t.Fatalf("Scale has %d fields, Key names 5: add the new one to Key and here", n)
	}
	keys := map[string]string{base.Key(): "the base run"}
	for field, vary := range variants { //lint:allow maprange — any order finds every duplicate key
		r := base
		vary(&r)
		if other, dup := keys[r.Key()]; dup {
			t.Errorf("varying %s gives key %q, the same as %s", field, r.Key(), other)
		}
		keys[r.Key()] = "varying " + field
	}
}

// TestExperimentTable checks the table against the places that list it
// by hand: names are unique, every entry renders, "all" is the table
// minus the fault campaign, an unknown name is refused with the valid
// ones, and the package doc's experiment index and DESIGN.md's name
// every entry.
func TestExperimentTable(t *testing.T) {
	seen := map[string]bool{"all": true}
	for _, e := range Experiments {
		if seen[e.Name] {
			t.Errorf("experiment name %q is taken twice", e.Name)
		}
		seen[e.Name] = true
		if e.Render == nil {
			t.Errorf("%s: no renderer", e.Name)
		}
		// A renderer simulates nothing: everything but the two tables
		// that are not simulations of Runs declares its points, and
		// every point, program or stream, builds.
		if e.Points == nil {
			if e.Name != "table1" && e.Name != "table2" {
				t.Errorf("%s: no points", e.Name)
			}
			continue
		}
		for _, r := range e.Points(Params{Sizes: []int{2}}) {
			cfg, err := r.Config()
			if err == nil {
				_, _, err = Build(r, cfg, QuickScale())
			}
			if err != nil {
				t.Errorf("%s: point %s: %v", e.Name, r.Key(), err)
			}
		}
	}
	all, err := Select("all")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range all {
		if e.Faults {
			t.Errorf("all includes %s", e.Name)
		}
	}
	if len(all) != len(Experiments)-1 {
		t.Errorf("all selects %d of %d experiments", len(all), len(Experiments))
	}
	if _, err := Select("nosuch"); err == nil || !strings.Contains(err.Error(), strings.Join(Names(), ", ")) {
		t.Errorf("Select(nosuch): err = %v, want the valid names", err)
	}
	pkgDoc, err := os.ReadFile("exp.go")
	if err != nil {
		t.Fatal(err)
	}
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range Experiments {
		if !strings.Contains(string(design), "-exp "+e.Name+"`") {
			t.Errorf("DESIGN.md: no experiment index row for `-exp %s`", e.Name)
		}
	}
	indexed := map[string]bool{"all": true}
	for _, m := range regexp.MustCompile(`(?m)^//\t(\w+) +— `).FindAllSubmatch(pkgDoc, -1) {
		name := string(m[1])
		if !seen[name] {
			t.Errorf("package doc indexes %q, which is not in the table", name)
		}
		indexed[name] = true
	}
	for name := range seen { //lint:allow maprange — each name is checked on its own
		if !indexed[name] {
			t.Errorf("package doc has no index line for %q", name)
		}
	}
}

// TestStreamBenchesStayMapped draws every stream bench's references for
// every CPU at 1, 33 and 64 CPUs, without simulating them: each must be
// a word inside a region of the Architecture 2 map (the write streams
// used to run off the end of the shared region past 32 CPUs).
func TestStreamBenchesStayMapped(t *testing.T) {
	for _, n := range []int{1, 33, 64} {
		l := mem.DefaultLayout(n)
		amap := mem.Arch2.BuildMap(l)
		for _, sb := range streamBenches {
			for cpu := 0; cpu < n; cpu++ {
				next := sb.gen(l, cpu)
				for i := uint64(0); i < sb.ops; i++ {
					if op := next(); op.Addr%4 != 0 || amap.Lookup(op.Addr) == nil {
						t.Fatalf("%s at n%d: CPU %d's reference %d is to %#x, outside the map", sb.bench, n, cpu, i, op.Addr)
					}
				}
			}
		}
	}
}
