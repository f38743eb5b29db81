// Package scratch sits in a _-prefixed directory, which `./...` skips:
// `go build ./...` never compiles it, so its type error must not stop
// the analysis of the module.
package scratch

var x int = "not an int"
