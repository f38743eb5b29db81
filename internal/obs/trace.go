package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// SpanID is a handle to an open span returned by Begin. The zero value
// is invalid and End ignores it, so callers may store handles in state
// structs unconditionally.
type SpanID uint64

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
	arg  bool    // addr is meaningful
	val  float64 // counter value (phCounter)
}

type openSpan struct {
	pid   int32
	lane  int32
	name  string
	addr  uint32
	arg   bool
	begin uint64
}

// lanePool hands out per-process lanes (rendered as threads) so
// overlapping spans of one entity — concurrent directory transactions,
// posted write-buffer entries — each get their own row instead of
// colliding on one.
type lanePool struct {
	base int32
	free []int32
	next int32
}

func (p *lanePool) get() int32 {
	if n := len(p.free); n > 0 {
		l := p.free[n-1]
		p.free = p.free[:n-1]
		return l
	}
	l := p.base + p.next
	p.next++
	return l
}

func (p *lanePool) put(l int32) { p.free = append(p.free, l) }

type traceBuf struct {
	max     int
	events  []event
	dropped uint64
	// cycle is the cycle of the latest add; coreEnd is where that
	// cycle's next sample or core-row event goes (see add).
	cycle   uint64
	coreEnd int

	open   map[SpanID]openSpan
	lanes  map[int32]*lanePool
	nextID SpanID

	procs   map[int32]procMeta
	threads map[[2]int32]string
}

type procMeta struct {
	name string
	sort int
}

func newTraceBuf(max int) *traceBuf {
	return &traceBuf{
		max:     max,
		open:    make(map[SpanID]openSpan),
		lanes:   make(map[int32]*lanePool),
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

// Span records a completed span on an explicitly chosen row. Use it
// for strictly sequential activities (a CPU's stall runs, a cache's
// single outstanding transaction) where the caller knows begin and end
// together; overlapping activities should go through Begin/End so the
// lane allocator separates them.
func (r *Recorder) Span(pid, tid int, name string, begin, end uint64, addr uint32) {
	if r == nil || r.tb == nil {
		return
	}
	r.tb.add(end, event{
		pid: int32(pid), tid: int32(tid), ph: phComplete,
		ts: begin, dur: max(end, begin+1) - begin, name: name, addr: addr, arg: true,
	})
}

// Instant records a zero-duration marker event.
func (r *Recorder) Instant(pid, tid int, name string, now uint64, addr uint32) {
	if r == nil || r.tb == nil {
		return
	}
	r.tb.add(now, event{
		pid: int32(pid), tid: int32(tid), ph: phInstant,
		ts: now, name: name, addr: addr, arg: true,
	})
}

// laneBase is the first lane id handed out per process, leaving room
// for the fixed rows (TidStall..TidEvict and future ones).
const laneBase = 16

// Begin opens a span on pid's track group, allocating a free lane for
// it. The returned handle must be closed with End; an exhausted event
// buffer still returns a live handle so bracketing stays balanced.
func (r *Recorder) Begin(pid int, name string, now uint64, addr uint32) SpanID {
	if r == nil || r.tb == nil {
		return 0
	}
	t := r.tb
	pool := t.lanes[int32(pid)]
	if pool == nil {
		pool = &lanePool{base: laneBase}
		t.lanes[int32(pid)] = pool
	}
	t.nextID++
	id := t.nextID
	t.open[id] = openSpan{
		pid: int32(pid), lane: pool.get(), name: name, addr: addr, arg: true, begin: now,
	}
	return id
}

// End closes a span opened by Begin, emitting the completed event.
func (r *Recorder) End(id SpanID, now uint64) {
	if r == nil || r.tb == nil || id == 0 {
		return
	}
	t := r.tb
	s, ok := t.open[id]
	if !ok {
		return
	}
	delete(t.open, id)
	t.lanes[s.pid].put(s.lane)
	t.add(now, event{
		pid: s.pid, tid: s.lane, ph: phComplete,
		ts: s.begin, dur: max(now, s.begin+1) - s.begin, name: s.name, addr: s.addr, arg: s.arg,
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
// rendered as one microsecond. Spans still open at write time are
// flushed as-is with their current extent, so a trace of a deadlocked
// run shows what was in flight.
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
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
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
	sort.Slice(tkeys, func(i, j int) bool {
		if tkeys[i][0] != tkeys[j][0] {
			return tkeys[i][0] < tkeys[j][0]
		}
		return tkeys[i][1] < tkeys[j][1]
	})
	for _, k := range tkeys {
		sep()
		fmt.Fprintf(bw, `{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%q}}`,
			k[0], k[1], t.threads[k])
	}

	writeEvent := func(e *event) {
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
			return
		}
		if e.arg {
			fmt.Fprintf(bw, `,"args":{"addr":"0x%x"}`, e.addr)
		}
		bw.WriteString("}")
	}
	for i := range t.events {
		writeEvent(&t.events[i])
	}
	// Flush any still-open spans so nothing recorded is lost.
	openIDs := make([]SpanID, 0, len(t.open))
	for id := range t.open { //lint:allow maprange — keys are sorted below
		openIDs = append(openIDs, id)
	}
	sort.Slice(openIDs, func(i, j int) bool { return openIDs[i] < openIDs[j] })
	for _, id := range openIDs {
		s := t.open[id]
		e := event{
			pid: s.pid, tid: s.lane, ph: phComplete,
			ts: s.begin, dur: 1, name: s.name, addr: s.addr, arg: s.arg,
		}
		writeEvent(&e)
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
