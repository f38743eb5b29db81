package core

import (
	"fmt"
	"io"

	"repro/internal/coherence"
)

// TraceMessages installs a protocol event log on every node. Each
// message is logged once, at injection, with a sequence id:
//
//	[cycle] tx #id node --kind--> peer addr=0x...
//
// With rx set, a matching delivery line (same id) is additionally
// printed when the message leaves the NoC — useful for measuring
// in-flight latency, but it doubles the log, so it is off by default.
// limit bounds the number of lines (0 = unlimited); tracing stops
// silently once it is reached. Call before Run.
func (s *System) TraceMessages(w io.Writer, limit int, rx bool) {
	var lines int
	var seq uint64
	var ids map[*coherence.Msg]uint64
	if rx {
		ids = make(map[*coherence.Msg]uint64)
	}
	hook := func(now uint64, dir string, self, peer int, m *coherence.Msg) {
		id, from, to := seq, self, peer
		if dir == "tx" {
			seq++
			id = seq
			if rx {
				ids[m] = seq
			}
		} else {
			if !rx {
				return
			}
			// Consume the id mapping unconditionally — before the limit
			// check. The delivered Msg recycles into the receiver's pool
			// the moment the rx hook returns, so an entry left behind
			// would alias the pointer's next incarnation: the map may
			// never retain a pooled Msg past its delivery.
			id = ids[m]
			delete(ids, m)
			from, to = peer, self
		}
		if limit > 0 && lines >= limit {
			return
		}
		lines++
		fmt.Fprintf(w, "[%8d] %s #%d %s --%s--> %s addr=%#x\n",
			now, dir, id, s.nodeName(from), m.Kind, s.nodeName(to), m.Addr)
	}
	for _, n := range s.Ports {
		n.Trace = hook
	}
}

// nodeName renders a node id as cpuN or bankN.
func (s *System) nodeName(id int) string {
	if id < s.Cfg.NumCPUs {
		return fmt.Sprintf("cpu%d", id)
	}
	return fmt.Sprintf("bank%d", id-s.Cfg.NumCPUs)
}
