package exp

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/coherence"
	"repro/internal/mem"
	"repro/internal/stats"
)

// mustRun executes runs at quick scale through the pool.
func mustRun(t *testing.T, runs []Run, jobs int) Results {
	t.Helper()
	results, err := ExecuteAll(runs, QuickScale(), nil, jobs)
	if err != nil {
		t.Fatalf("jobs=%d: %v", jobs, err)
	}
	res := make(Results, len(runs))
	for i, r := range runs {
		res[r] = results[i]
	}
	return res
}

// TestExecuteAllMatchesSerial is the contract of the pool: how many
// simulations are in flight must be invisible in the output. Over the
// figure grid and one non-grid ablation, every table (rendered and
// CSV) and every per-run result JSON must come out byte for byte
// identical at one job, at four, and at more jobs than points.
func TestExecuteAllMatchesSerial(t *testing.T) {
	sizes := []int{2, 4}
	runs := append(gridRuns(sizes), waysRuns(4)...)
	render := func(res Results) string {
		var out strings.Builder
		for _, tb := range []*stats.Table{
			Fig4(res, sizes), Fig5(res, sizes), Fig6(res, sizes), renderWays(waysRuns(4), res),
		} {
			out.WriteString(tb.Render())
			out.WriteString(tb.CSV())
		}
		return out.String()
	}

	serial := mustRun(t, runs, 1)
	for _, jobs := range []int{4, 64} {
		parallel := mustRun(t, runs, jobs)
		if s, p := render(serial), render(parallel); s != p {
			t.Errorf("jobs=%d: tables differ from serial:\n--- serial ---\n%s--- parallel ---\n%s", jobs, s, p)
		}
		for _, r := range runs {
			var sbuf, pbuf bytes.Buffer
			if err := serial[r].WriteJSON(&sbuf); err != nil {
				t.Fatalf("%s: serial json: %v", r.Key(), err)
			}
			if err := parallel[r].WriteJSON(&pbuf); err != nil {
				t.Fatalf("%s: jobs=%d json: %v", r.Key(), jobs, err)
			}
			if !bytes.Equal(sbuf.Bytes(), pbuf.Bytes()) {
				t.Errorf("%s: jobs=%d result JSON differs:\n--- serial ---\n%s--- parallel ---\n%s",
					r.Key(), jobs, sbuf.String(), pbuf.String())
			}
		}
	}
}

// TestExecuteAllJobClamping checks the degenerate worker counts: zero
// jobs (GOMAXPROCS), one, more than there are points — and no points
// at all, which is what an experiment whose points another already ran
// hands the pool — must not deadlock or drop results.
func TestExecuteAllJobClamping(t *testing.T) {
	for _, runs := range [][]Run{nil, gridRuns([]int{2})[:2]} {
		for _, jobs := range []int{0, 1, 64} {
			results, err := ExecuteAll(runs, QuickScale(), nil, jobs)
			if err != nil {
				t.Fatalf("%d runs, jobs=%d: %v", len(runs), jobs, err)
			}
			if len(results) != len(runs) {
				t.Fatalf("%d runs, jobs=%d: %d results", len(runs), jobs, len(results))
			}
			for i, res := range results {
				if res == nil {
					t.Fatalf("%d runs, jobs=%d: result %d missing", len(runs), jobs, i)
				}
			}
		}
	}
}

// TestExecuteAllReportsFirstErrorInOrder pins the documented error
// contract: with two failing points in the list, the error returned is
// the earlier one's at every jobs value, whichever worker fails first.
func TestExecuteAllReportsFirstErrorInOrder(t *testing.T) {
	good := Run{Bench: Ocean, Protocol: coherence.WTI, Arch: mem.Arch2, NumCPUs: 2}
	first, second := good, good
	first.Fault = "drop=first-bad-spec"
	second.Fault = "drop=second-bad-spec"
	// A bad spec is found after the workload image is built, so at 16
	// CPUs the earlier point fails later in wall-clock time than the
	// 2-CPU point behind it.
	first.NumCPUs = 16
	runs := []Run{good, first, second}
	for _, jobs := range []int{1, 4, 64} {
		_, err := ExecuteAll(runs, QuickScale(), nil, jobs)
		if err == nil || !strings.Contains(err.Error(), first.Key()) {
			t.Errorf("jobs=%d: err = %v, want the error of %s", jobs, err, first.Key())
		}
	}
}

// TestTablesReusesFinishedPoints pins the sharing rule of
// Experiment.Tables: a point already in done is rendered from there,
// not simulated again.
func TestTablesReusesFinishedPoints(t *testing.T) {
	p := Params{Sizes: []int{2}, Scale: QuickScale(), Jobs: 1}
	fig4, err := Select("fig4")
	if err != nil {
		t.Fatal(err)
	}
	done := Results{}
	if _, err := fig4[0].Tables(p, done); err != nil {
		t.Fatal(err)
	}
	if len(done) != len(gridRuns(p.Sizes)) {
		t.Fatalf("done holds %d points, want the grid's %d", len(done), len(gridRuns(p.Sizes)))
	}
	before := make(Results, len(done))
	for r, res := range done { //lint:allow maprange — a copy; order-independent
		before[r] = res
	}
	fig5, _ := Select("fig5")
	if _, err := fig5[0].Tables(p, done); err != nil {
		t.Fatal(err)
	}
	for r, res := range done { //lint:allow maprange — each point is checked on its own
		if before[r] != res {
			t.Errorf("%s: simulated again for the second figure", r.Key())
		}
	}
}
