package resource

import (
	"bufio"
	"fmt"
	"io"
)

// csvHeader is the column order of the resource CSV.
const csvHeader = "elapsed_ms,heap_alloc,sys,num_gc,pause_total_ns,goroutines,rss"

// WriteCSV writes the series recorded so far, one row per sample.
// Safe on a nil sampler (writes just the header).
func (s *Sampler) WriteCSV(w io.Writer) error {
	return WriteCSV(w, s.Samples())
}

// WriteCSV writes a sample series as CSV with the fixed header.
func WriteCSV(w io.Writer, samples []Sample) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, csvHeader)
	for _, sm := range samples {
		fmt.Fprintf(bw, "%.3f,%d,%d,%d,%d,%d,%d\n",
			sm.ElapsedMs, sm.HeapAlloc, sm.Sys, sm.NumGC,
			sm.PauseTotalNs, sm.Goroutines, sm.RSS)
	}
	return bw.Flush()
}
