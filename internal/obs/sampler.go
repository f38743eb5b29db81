package obs

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Probe reads one time-series value at a sampling instant. Probes must
// only observe state — a probe that mutates the simulation would break
// the determinism guarantee.
type Probe func(now uint64) float64

// Sampler records whole-system time series on a fixed cycle interval.
// Columns are registered once (before the run) with AddProbe; the
// engine then drives Recorder.Sample every interval cycles.
type Sampler struct {
	interval uint64
	names    []string
	probes   []Probe

	cycles []uint64
	rows   [][]float64
}

// AddProbe registers a named column.
func (s *Sampler) AddProbe(name string, p Probe) {
	if s == nil {
		return
	}
	s.names = append(s.names, name)
	s.probes = append(s.probes, p)
}

// DeltaProbe adapts a cumulative counter into a per-interval rate
// column: each sample reports the increase since the previous one.
func DeltaProbe(read func() uint64) Probe {
	var prev uint64
	return func(now uint64) float64 {
		v := read()
		d := v - prev
		prev = v
		return float64(d)
	}
}

func (s *Sampler) sample(now uint64) []float64 {
	row := make([]float64, len(s.probes))
	for i, p := range s.probes {
		row[i] = p(now)
	}
	s.cycles = append(s.cycles, now)
	s.rows = append(s.rows, row)
	return row
}

// Samples reports the number of recorded rows.
func (s *Sampler) Samples() int {
	if s == nil {
		return 0
	}
	return len(s.rows)
}

// WriteCSV emits the samples as CSV: a "cycle" column followed by the
// registered series.
func (s *Sampler) WriteCSV(w io.Writer) error {
	if s == nil {
		return fmt.Errorf("obs: sampling was not enabled")
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "cycle,%s\n", strings.Join(s.names, ","))
	for i, row := range s.rows {
		fmt.Fprintf(bw, "%d", s.cycles[i])
		for _, v := range row {
			fmt.Fprintf(bw, ",%g", v)
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}
