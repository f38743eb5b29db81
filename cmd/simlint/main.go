// Command simlint runs the repository's custom static analyzers (see
// internal/lint) over the module and exits nonzero on any finding. It
// is part of `make check`: the simulator's results are only
// trustworthy if two runs with the same seed are bit-identical, and
// these analyzers reject the usual ways that property quietly erodes —
// wall-clock reads, the process-global random generator, randomized map
// iteration order, non-exhaustive protocol-state switches — plus new
// allocations on the declared hot paths.
//
// Exit codes: 0 clean, 1 findings, 2 usage or load error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("C", ".", "module root to analyze")
	list := fs.Bool("list", false, "print the analyzer roster with one-line docs and exit")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "simlint: unexpected arguments: %s\n", strings.Join(fs.Args(), " "))
		return 2
	}

	if *list {
		tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
		for _, info := range lint.Roster() {
			fmt.Fprintf(tw, "%s\t%s\n", info.Name, info.Doc)
		}
		tw.Flush()
		return 0
	}

	var opts lint.Options
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			if name = strings.TrimSpace(name); name != "" {
				opts.Only = append(opts.Only, name)
			}
		}
	}

	findings, err := lint.RunOpts(*dir, opts)
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
