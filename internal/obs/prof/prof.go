// Package prof wires Go's pprof profilers into the two simulation
// commands (mcsim, sweep) through one shared flag set, so both spell
// the hooks the same way, and refuses what both refuse:
//
//	-cpuprofile FILE   CPU profile for the whole invocation
//	-memprofile FILE   heap profile written at exit (after a GC)
//
// Start creates both files, so a typo'd path costs seconds, not a
// finished simulation. Profiling is host-side measurement only: it
// observes the process, never the simulation, and a run's output is
// byte-identical with and without it.
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Config holds the two profiling flag values.
type Config struct {
	CPUProfile string
	MemProfile string

	cpuFile, memFile *os.File
}

// RegisterFlags registers -cpuprofile and -memprofile on the default
// command-line flag set and returns the config they fill.
func RegisterFlags() *Config {
	c := &Config{}
	flag.StringVar(&c.CPUProfile, "cpuprofile", "", "write a CPU profile of the whole invocation to `file`")
	flag.StringVar(&c.MemProfile, "memprofile", "", "write a heap profile to `file` at exit")
	return c
}

// RejectPositional refuses leftover positional arguments: every option
// is a flag, so a stray token is almost always a misplaced flag and
// silently ignoring it would run something other than asked.
func RejectPositional(args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("unexpected argument %q (all options are flags; see -h)", args[0])
	}
	return nil
}

// Start creates the requested profile files and begins the CPU profile.
// It returns a stop function that must run before process exit (it
// finishes the CPU profile and writes the heap profile); with no flags
// set both Start and stop are no-ops.
func (c *Config) Start() (stop func() error, err error) {
	if c.MemProfile != "" {
		if c.memFile, err = os.Create(c.MemProfile); err != nil {
			return nil, fmt.Errorf("prof: %v", err)
		}
	}
	if c.CPUProfile != "" {
		if c.cpuFile, err = os.Create(c.CPUProfile); err != nil {
			c.memFile.Close() // a nil *os.File's Close is a no-op error
			return nil, fmt.Errorf("prof: %v", err)
		}
		if err := pprof.StartCPUProfile(c.cpuFile); err != nil {
			c.cpuFile.Close()
			c.memFile.Close()
			return nil, fmt.Errorf("prof: %v", err)
		}
	}
	return c.stop, nil
}

func (c *Config) stop() error {
	var err error
	if c.cpuFile != nil {
		pprof.StopCPUProfile()
		err = c.cpuFile.Close()
	}
	if c.memFile != nil {
		// A GC first, so the heap profile shows live objects rather
		// than garbage awaiting collection.
		runtime.GC()
		if werr := pprof.WriteHeapProfile(c.memFile); err == nil {
			err = werr
		}
		if cerr := c.memFile.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("prof: %v", err)
	}
	return nil
}
