// Command simlint runs the repository's custom static analyzers (see
// internal/lint) over the module and exits nonzero on any finding. It
// is part of `make check`: the simulator's results are only
// trustworthy if two runs with the same seed are bit-identical, and
// these analyzers reject the usual ways that property quietly erodes —
// wall-clock reads, the process-global random generator, randomized map
// iteration order — plus new allocations on the declared hot paths.
// Every analyzer runs on every invocation; -C names the module root.
//
// Exit codes: 0 clean, 1 findings, 2 usage or load error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("C", ".", "module root to analyze")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "simlint: unexpected arguments: %s\n", strings.Join(fs.Args(), " "))
		return 2
	}

	findings, err := lint.Run(*dir)
	if err != nil {
		fmt.Fprintln(stderr, "simlint:", err)
		return 2
	}

	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "simlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
