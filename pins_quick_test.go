//go:build !equiv

package repro

// go test runs the tier-1 rows of the pinned-run table (pins_test.go),
// each on the scheduled engine.
const equivTier = false
