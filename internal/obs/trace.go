package obs

import (
	"bufio"
	"fmt"
	"io"
)

// event phases, a subset of the Chrome trace-event format.
const (
	phComplete = 'X'
	phInstant  = 'i'
	phCounter  = 'C'
)

// event is one recorded trace event, kept compact because runs record
// millions of them.
type event struct {
	pid  int32
	tid  int32
	ph   byte
	ts   uint64
	dur  uint64
	name string
	addr uint32
	val  float64 // counter value (phCounter)
}

type traceBuf struct {
	max     int
	events  []event
	dropped uint64
	// cycle is the cycle of the latest add; coreEnd is where that
	// cycle's next sample or core-row event goes (see add).
	cycle   uint64
	coreEnd int

	// laneEnd holds, per track group, the cycle each lane's last span
	// ends (see lane).
	laneEnd map[int32][]uint64

	// cpus and banks size the machine whose tracks WriteTrace names.
	cpus, banks int
}

func newTraceBuf() *traceBuf {
	return &traceBuf{max: maxTraceEvents, laneEnd: make(map[int32][]uint64)}
}

// add buffers e, recorded at cycle at (nondecreasing across calls). The
// buffer keeps one canonical order whatever order the engine ticks
// components in within a cycle: cycle by cycle, the interval samples
// taken on entering the cycle, then the cores' own rows (a CPU's stall
// row), then everything the caches, ports and banks recorded — each
// group in recording order. A core's events are therefore moved ahead
// of what its neighbours' caches already recorded this cycle.
func (t *traceBuf) add(at uint64, e event) {
	if len(t.events) >= t.max {
		t.dropped++
		return
	}
	if at != t.cycle {
		t.cycle, t.coreEnd = at, len(t.events)
	}
	t.events = append(t.events, e)
	if e.ph == phCounter || e.tid == TidStall && e.pid >= cpuPidBase && e.pid < dirPidBase {
		copy(t.events[t.coreEnd+1:], t.events[t.coreEnd:])
		t.events[t.coreEnd] = e
		t.coreEnd++
	}
}

func (t *traceBuf) counter(pid int, name string, now uint64, v float64) {
	t.add(now, event{pid: int32(pid), ph: phCounter, ts: now, name: name, val: v})
}

// Machine lays the trace's tracks out for a machine of cpus CPUs and
// banks memory banks, numbered as its NoC nodes are (CPU i is node i,
// bank b node cpus+b): WriteTrace names, beside the metrics group, each
// CPU with its stall and dcache rows, each bank's directory and each
// NoC port.
func (r *Recorder) Machine(cpus, banks int) {
	if r == nil || r.tb == nil {
		return
	}
	r.tb.cpus, r.tb.banks = cpus, banks
}

// Span records a completed span, at its end cycle. On row TidLane it
// goes on the lowest lane of pid's track group free over [begin, end),
// so overlapping activities of one entity — concurrent directory
// transactions, posted writes awaiting their ack — each get a row.
func (r *Recorder) Span(pid, tid int, name string, begin, end uint64, addr uint32) {
	if r == nil || r.tb == nil {
		return
	}
	stop := max(end, begin+1)
	if tid == TidLane {
		tid = r.tb.lane(int32(pid), begin, stop)
	}
	r.tb.add(end, event{
		pid: int32(pid), tid: int32(tid), ph: phComplete,
		ts: begin, dur: stop - begin, name: name, addr: addr,
	})
}

// lane takes the lowest lane of pid free over [begin, end) until end.
// Spans are recorded as they close, in cycle order, so a lane is free
// exactly when its last span ended by begin.
func (t *traceBuf) lane(pid int32, begin, end uint64) int {
	ends := t.laneEnd[pid]
	i := 0
	for i < len(ends) && ends[i] > begin {
		i++
	}
	if i == len(ends) {
		ends = append(ends, 0)
		t.laneEnd[pid] = ends
	}
	ends[i] = end
	return TidLane + i
}

// Instant records a zero-duration marker event.
func (r *Recorder) Instant(pid, tid int, name string, now uint64, addr uint32) {
	if r == nil || r.tb == nil {
		return
	}
	r.tb.add(now, event{
		pid: int32(pid), tid: int32(tid), ph: phInstant,
		ts: now, name: name, addr: addr,
	})
}

// TraceEvents reports the number of buffered events.
func (r *Recorder) TraceEvents() int {
	if r == nil || r.tb == nil {
		return 0
	}
	return len(r.tb.events)
}

// TraceDropped reports events discarded after the buffer cap.
func (r *Recorder) TraceDropped() uint64 {
	if r == nil || r.tb == nil {
		return 0
	}
	return r.tb.dropped
}

// WriteTrace emits the recorded events as Chrome trace-event JSON
// (the "JSON object format": a traceEvents array plus metadata), which
// chrome://tracing and Perfetto load directly. One simulated cycle is
// rendered as one microsecond.
func (r *Recorder) WriteTrace(w io.Writer) error {
	if r == nil || r.tb == nil {
		return fmt.Errorf("obs: tracing was not enabled")
	}
	t := r.tb
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	sep := func() {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
	}

	// Metadata, in pid order: the groups, then the CPUs' rows.
	group := func(pid int, name string, sort int) {
		sep()
		fmt.Fprintf(bw, `{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%q}}`, pid, name)
		sep()
		fmt.Fprintf(bw, `{"name":"process_sort_index","ph":"M","pid":%d,"tid":0,"args":{"sort_index":%d}}`, pid, sort)
	}
	group(MetricsPid, "metrics", 0)
	for i := range t.cpus {
		group(CPUPid(i), fmt.Sprintf("cpu%d", i), 10+i)
	}
	for b := range t.banks {
		group(DirPid(b), fmt.Sprintf("bank%d dir", b), 1000+b)
	}
	for p := range t.cpus + t.banks {
		node := fmt.Sprintf("cpu%d", p)
		if p >= t.cpus {
			node = fmt.Sprintf("bank%d", p-t.cpus)
		}
		group(PortPid(p), fmt.Sprintf("port%d (%s)", p, node), 2000+p)
	}
	for i := range t.cpus {
		for tid, name := range []string{TidStall: "stall", TidDCache: "dcache"} {
			sep()
			fmt.Fprintf(bw, `{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%q}}`, CPUPid(i), tid, name)
		}
	}

	for i := range t.events {
		e := &t.events[i]
		sep()
		switch e.ph {
		case phComplete:
			fmt.Fprintf(bw, `{"name":%q,"ph":"X","pid":%d,"tid":%d,"ts":%d,"dur":%d`,
				e.name, e.pid, e.tid, e.ts, e.dur)
		case phInstant:
			fmt.Fprintf(bw, `{"name":%q,"ph":"i","s":"t","pid":%d,"tid":%d,"ts":%d`,
				e.name, e.pid, e.tid, e.ts)
		case phCounter:
			fmt.Fprintf(bw, `{"name":%q,"ph":"C","pid":%d,"ts":%d,"args":{"value":%g}}`,
				e.name, e.pid, e.ts, e.val)
			continue
		}
		fmt.Fprintf(bw, `,"args":{"addr":"0x%x"}}`, e.addr)
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
