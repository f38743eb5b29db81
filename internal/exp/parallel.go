package exp

import (
	"runtime"
	"sync"

	"repro/internal/core"
)

// GridParallel runs the same Figure 4–6 grid as GridObserved with up to
// jobs simulations in flight at once (jobs < 1 selects GOMAXPROCS). The
// result is indistinguishable from the serial runner's: every grid
// point builds its own isolated System, results are merged under the
// same keys, and the figure builders iterate them in canonical order —
// so tables, CSVs, and per-run JSON come out byte-identical (proved by
// TestGridParallelMatchesSerial). Errors, too, surface deterministically:
// the error reported is the one the serial runner would have hit first,
// whichever worker happens to fail earliest in wall-clock time.
//
// The one behavioural difference is that a failing point does not stop
// already-dispatched points from finishing; their results are discarded.
func GridParallel(sizes []int, sc Scale, o *Observe, jobs int) (map[Run]*core.Result, error) {
	runs := gridRuns(sizes)
	if jobs < 1 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(runs) {
		jobs = len(runs)
	}
	if jobs <= 1 {
		return GridObserved(sizes, sc, o)
	}

	results := make([]*core.Result, len(runs))
	errs := make([]error, len(runs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i], errs[i] = ExecuteObserved(runs[i], sc, o)
			}
		}()
	}
	for i := range runs {
		idx <- i
	}
	close(idx)
	wg.Wait()

	// Report the first error in grid-enumeration order, exactly as the
	// serial runner would.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := make(map[Run]*core.Result, len(runs))
	for i, r := range runs {
		out[r] = results[i]
	}
	return out, nil
}
