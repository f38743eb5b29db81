//go:build equiv

package repro

// The equiv tier of the pinned-run table (pins_test.go): every row, and
// every mcsim row again under -noleap. make equiv runs it as
//
//	go test -tags equiv -count=1 -run TestPinnedRuns .
const equivTier = true
