// Package stats provides the table rendering used by the simulator's
// reporting harnesses. Components keep their own plain integer counters
// for speed; this package supplies the shared presentation layer (ASCII
// tables, CSV) plus a few aggregation helpers so every experiment
// prints in the same format.
package stats

// Mega scales a cycle count to megacycles, the unit of the paper's
// Figure 4.
func Mega(cycles uint64) float64 { return float64(cycles) / 1e6 }

// Percent returns 100*part/whole, or 0 when whole is zero.
func Percent(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// Ratio returns a/b, or 0 when b is zero.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
