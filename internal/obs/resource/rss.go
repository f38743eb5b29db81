package resource

import (
	"bytes"
	"os"
	"strconv"
)

// pageSize is read once; sysconf cannot change while we run.
var pageSize = uint64(os.Getpagesize())

// readRSS returns the process resident set size in bytes from
// /proc/self/statm (second field, in pages), or 0 when the read fails
// — including on platforms without procfs, where 0 means "not
// measured" and the summary omits the RSS fields. statm is preferred
// over status: it is a fixed single line, so the parse is
// allocation-light enough to run on every tick. Probing the file at
// runtime instead of gating on GOOS keeps the package one file set on
// every platform, so every host builds and lints the same code.
func readRSS() uint64 {
	buf, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := bytes.Fields(buf)
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(string(fields[1]), 10, 64)
	if err != nil {
		return 0
	}
	return pages * pageSize
}
