// Package prof wires Go's pprof profilers into the perf-facing
// commands (mcsim, sweep, bench) through one shared flag set, so every
// tool spells the hooks the same way:
//
//	-cpuprofile FILE   CPU profile for the whole invocation
//	-memprofile FILE   heap profile written at exit (after a GC)
//	-pprof-http ADDR   live net/http/pprof endpoint for the run
//
// Profiling is host-side measurement only: it observes the process,
// never the simulation, so it composes with the determinism guarantees
// the same way internal/obs/resource does — entirely off-engine.
package prof

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux
	"os"
	"runtime"
	"runtime/pprof"
)

// Config holds the three profiling flag values.
type Config struct {
	CPUProfile string
	MemProfile string
	HTTPAddr   string

	cpuFile *os.File
	ln      net.Listener
}

// RegisterFlags registers -cpuprofile, -memprofile and -pprof-http on
// the default command-line flag set and returns the config they fill.
func RegisterFlags() *Config {
	c := &Config{}
	flag.StringVar(&c.CPUProfile, "cpuprofile", "", "write a CPU profile of the whole invocation to `file`")
	flag.StringVar(&c.MemProfile, "memprofile", "", "write a heap profile to `file` at exit")
	flag.StringVar(&c.HTTPAddr, "pprof-http", "", "serve net/http/pprof on `addr` (e.g. localhost:6060) while running")
	return c
}

// Start begins whatever profiling the flags request. It returns a stop
// function that must run before process exit (it finishes the CPU
// profile and writes the heap profile); with no flags set both Start
// and stop are no-ops. Errors opening files or binding the listener
// surface immediately so a bad path fails before a long run, not after.
func (c *Config) Start() (stop func() error, err error) {
	if c.CPUProfile != "" {
		c.cpuFile, err = os.Create(c.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("prof: %v", err)
		}
		if err := pprof.StartCPUProfile(c.cpuFile); err != nil {
			c.cpuFile.Close()
			return nil, fmt.Errorf("prof: %v", err)
		}
	}
	if c.HTTPAddr != "" {
		c.ln, err = net.Listen("tcp", c.HTTPAddr)
		if err != nil {
			c.stopCPU()
			return nil, fmt.Errorf("prof: %v", err)
		}
		fmt.Fprintf(os.Stderr, "prof: pprof endpoint at http://%s/debug/pprof/\n", c.ln.Addr())
		go http.Serve(c.ln, nil) //nolint:errcheck // closed by stop
	}
	return c.stopAll, nil
}

func (c *Config) stopCPU() {
	if c.cpuFile == nil {
		return
	}
	pprof.StopCPUProfile()
	c.cpuFile.Close()
	c.cpuFile = nil
}

func (c *Config) stopAll() error {
	c.stopCPU()
	if c.ln != nil {
		c.ln.Close()
		c.ln = nil
	}
	if c.MemProfile != "" {
		f, err := os.Create(c.MemProfile)
		if err != nil {
			return fmt.Errorf("prof: %v", err)
		}
		// A GC first, so the heap profile shows live objects rather
		// than garbage awaiting collection.
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("prof: %v", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("prof: %v", err)
		}
	}
	return nil
}
