// Package sim is a lint fixture: every construct the determinism
// analyzers must flag, plus the allowed forms they must not.
package sim

import (
	"math/rand"
	"sort"
	"time"
)

func wallClock() int64 {
	t := time.Now() // want walltime
	_ = time.Since(t)
	return t.Unix()
}

func globalRand() int {
	return rand.Intn(6) // want globalrand
}

func seededRand(seed int64) int {
	rng := rand.New(rand.NewSource(seed)) // allowed: explicit generator
	return rng.Intn(6)
}

func mapIter(m map[int]int) int {
	s := 0
	for _, v := range m { // want maprange
		s += v
	}
	//lint:allow maprange — order-independent sum
	for _, v := range m {
		s += v
	}
	for i, v := range []int{1, 2, 3} { // slices are fine
		s += i + v
	}
	return s
}

// sortedKeys is the canonical maprange fix: collect (suppressed,
// order-independent) then sort.
func sortedKeys(m map[int]int) []int {
	keys := make([]int, 0, len(m))
	//lint:allow maprange — keys are collected then sorted
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// sortedIter ranges the sorted slice, not the map: must not be flagged.
func sortedIter(m map[int]int) int {
	s := 0
	for _, k := range sortedKeys(m) {
		s += m[k]
	}
	return s
}
