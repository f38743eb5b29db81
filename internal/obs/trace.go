package obs

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
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

	procs   map[int32]procMeta
	threads map[[2]int32]string
}

type procMeta struct {
	name string
	sort int
}

func newTraceBuf() *traceBuf {
	return &traceBuf{
		max:     maxTraceEvents,
		laneEnd: make(map[int32][]uint64),
		procs:   make(map[int32]procMeta),
		threads: make(map[[2]int32]string),
	}
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

// NameProcess labels a track group (trace "process") and fixes its
// display order.
func (r *Recorder) NameProcess(pid int, name string, sortIndex int) {
	if r == nil || r.tb == nil {
		return
	}
	r.tb.procs[int32(pid)] = procMeta{name: name, sort: sortIndex}
}

// NameThread labels one row (trace "thread") of a track group.
func (r *Recorder) NameThread(pid, tid int, name string) {
	if r == nil || r.tb == nil {
		return
	}
	r.tb.threads[[2]int32{int32(pid), int32(tid)}] = name
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

	// Metadata: stable order so traces diff cleanly.
	pids := make([]int32, 0, len(t.procs))
	for pid := range t.procs { //lint:allow maprange — keys are sorted below
		pids = append(pids, pid)
	}
	slices.Sort(pids)
	for _, pid := range pids {
		m := t.procs[pid]
		sep()
		fmt.Fprintf(bw, `{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%q}}`, pid, m.name)
		sep()
		fmt.Fprintf(bw, `{"name":"process_sort_index","ph":"M","pid":%d,"tid":0,"args":{"sort_index":%d}}`, pid, m.sort)
	}
	tkeys := make([][2]int32, 0, len(t.threads))
	for k := range t.threads { //lint:allow maprange — keys are sorted below
		tkeys = append(tkeys, k)
	}
	slices.SortFunc(tkeys, func(a, b [2]int32) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
	for _, k := range tkeys {
		sep()
		fmt.Fprintf(bw, `{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%q}}`,
			k[0], k[1], t.threads[k])
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
