// Package sim is the build-constraint fixture: on_soak.go (included —
// the loader lists the module with -tags soak) and off_falsetag.go /
// off_nosoak.go (excluded) declare the SAME symbols, so the module
// only typechecks if the loader selects files the way the go tool
// does. The excluded files also contain findings that must not be
// reported.
package sim

// use keeps the constrained symbols referenced.
func use() int64 { return sample() + tagWord + osWord }

var _ = use
