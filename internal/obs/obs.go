// Package obs is the simulator's observability layer: transaction-
// level tracing, interval time-series metrics, and per-request-type
// latency attribution, all recorded against the simulated cycle clock.
//
// The design goal is zero overhead when disabled: a `*Recorder` is nil
// by default, and every Recorder method is safe to call on a nil
// receiver, so instrumentation points cost one pointer test on the hot
// path. core.System.AttachObserver hands a Recorder to each CPU and to
// each NoC port; a cache or bank records through its port's. Three
// data products then become available:
//
//   - a Chrome trace-event JSON stream (chrome://tracing and Perfetto
//     both load it) with one track group per CPU, per bank directory,
//     and per NoC port — this package lays the tracks out (the pids
//     and rows below, the names through Machine) — see WriteTrace;
//   - interval samples of whole-system time series (IPC, stall share,
//     write-buffer occupancy, directory queue depth, per-port NoC
//     flits) — see Sampler and WriteCSV;
//   - latency histograms keyed by request type that reproduce the
//     paper's Table 1 hop costs empirically from live runs — see
//     LatencyReport.
//
// Recording never sends messages, never advances component state and
// never consults host time, so an attached Recorder cannot change
// simulation results — a property pinned by the determinism
// regression test in internal/core.
package obs

// Config selects which pillars a Recorder collects.
type Config struct {
	// Trace enables transaction/span recording for Chrome trace
	// export.
	Trace bool
	// SampleInterval is the metrics sampling period in cycles
	// (0 disables interval sampling).
	SampleInterval uint64
}

// maxTraceEvents caps the in-memory event buffer, bounding trace memory
// to roughly a few hundred megabytes on the largest runs; once reached,
// further events are counted as dropped but not stored.
const maxTraceEvents = 4_000_000

// Recorder is the per-system observability sink. A nil *Recorder is
// the disabled state: all methods are no-ops.
type Recorder struct {
	tb      *traceBuf
	sampler *Sampler
	lat     latencySet
}

// New builds a Recorder for the configuration. Latency attribution is
// always on (it is a handful of counters); tracing and sampling follow
// cfg.
func New(cfg Config) *Recorder {
	r := &Recorder{}
	if cfg.Trace {
		r.tb = newTraceBuf()
	}
	if cfg.SampleInterval > 0 {
		r.sampler = &Sampler{interval: cfg.SampleInterval}
	}
	return r
}

// Tracing reports whether span/event recording is active.
func (r *Recorder) Tracing() bool { return r != nil && r.tb != nil }

// Sampling reports whether interval sampling is active.
func (r *Recorder) Sampling() bool { return r != nil && r.sampler != nil }

// SampleInterval returns the sampling period (0 when sampling is off).
func (r *Recorder) SampleInterval() uint64 {
	if r == nil || r.sampler == nil {
		return 0
	}
	return r.sampler.interval
}

// Sampler returns the interval sampler, or nil when sampling is off.
func (r *Recorder) Sampler() *Sampler {
	if r == nil {
		return nil
	}
	return r.sampler
}

// Sample runs one sampling pass at cycle now: every registered probe
// is read, the row is stored, and — when tracing too — each series
// value is additionally emitted as a Chrome counter event so the time
// series render alongside the transaction tracks.
func (r *Recorder) Sample(now uint64) {
	if r == nil || r.sampler == nil {
		return
	}
	row := r.sampler.sample(now)
	if r.tb != nil {
		for i, name := range r.sampler.names {
			r.tb.counter(MetricsPid, name, now, row[i])
		}
	}
}

// Track identifiers. Each simulated entity gets its own "process" in
// the trace so viewers group its rows together; the pid ranges keep
// the categories apart.
const (
	// MetricsPid carries the interval counter tracks.
	MetricsPid = 1

	cpuPidBase  = 1000
	dirPidBase  = 2000
	portPidBase = 3000
)

// Thread (row) ids within a CPU's track group.
const (
	// TidStall is the CPU execution-stall row.
	TidStall = 0
	// TidDCache is the data-cache transaction row (one outstanding
	// blocking transaction at a time).
	TidDCache = 1
	// TidLane asks Span for the lowest free lane: rows TidLane,
	// TidLane+1, … carry activities of one entity that overlap in time.
	TidLane = 16
)

// CPUPid returns the trace process id of CPU i.
func CPUPid(i int) int { return cpuPidBase + i }

// DirPid returns the trace process id of memory bank b's directory.
func DirPid(b int) int { return dirPidBase + b }

// PortPid returns the trace process id of NoC port (node) n.
func PortPid(n int) int { return portPidBase + n }
