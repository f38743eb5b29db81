// Package stats provides the lightweight counters and table rendering
// used by the simulator's reporting harnesses. Components keep their own
// plain integer counters for speed; this package supplies the shared
// presentation layer (ASCII tables, CSV) plus a few aggregation helpers
// so every experiment prints in the same format.
package stats

import (
	"fmt"
	"sort"
	"strings"
)

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

// Counter is a named monotonically increasing count.
type Counter struct {
	Name  string
	Value uint64
}

// Set is an ordered collection of named counters. The zero value is
// ready to use.
type Set struct {
	order []string
	m     map[string]uint64
}

// Add increments the named counter by n, creating it if needed.
func (s *Set) Add(name string, n uint64) {
	if s.m == nil {
		s.m = make(map[string]uint64)
	}
	if _, ok := s.m[name]; !ok {
		s.order = append(s.order, name)
	}
	s.m[name] += n
}

// Get returns the value of the named counter (zero if absent).
func (s *Set) Get(name string) uint64 { return s.m[name] }

// Counters returns the counters in insertion order.
func (s *Set) Counters() []Counter {
	out := make([]Counter, 0, len(s.order))
	for _, name := range s.order {
		out = append(out, Counter{Name: name, Value: s.m[name]})
	}
	return out
}

// Merge adds every counter of other into s.
func (s *Set) Merge(other *Set) {
	for _, c := range other.Counters() {
		s.Add(c.Name, c.Value)
	}
}

// String renders the set as "name=value" pairs sorted by name.
func (s *Set) String() string {
	names := make([]string, 0, len(s.m))
	for n := range s.m {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s=%d", n, s.m[n])
	}
	return strings.Join(parts, " ")
}
