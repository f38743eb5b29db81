package modelcheck

import (
	"fmt"
	"strings"

	"repro/internal/coherence"
)

// Result summarises one exploration.
type Result struct {
	// States is the number of distinct reachable states visited.
	States int
	// Transitions is the number of state transitions examined
	// (including those leading to already-visited states).
	Transitions int
	// MaxDepth is the deepest BFS level reached (cycles from reset).
	MaxDepth int
	// Quiescent counts visited states with no pending work; Terminal
	// counts the quiescent states in which no operations remain.
	Quiescent, Terminal int
	// Complete reports whether the state space was exhausted (false if
	// MaxStates cut exploration short).
	Complete bool
	// Violation is the first invariant violation found, or nil.
	Violation *Violation
}

// Violation is one invariant failure with its replayable evidence.
type Violation struct {
	// Err is the failed invariant.
	Err error
	// Kind classifies it: "invariant", "ghost", "quiescent", "deadlock".
	Kind string
	// Path is the joint-choice sequence from reset to the bad state.
	Path []choice
	// Trace is the rendered counterexample: the per-cycle operations
	// and every NoC message on the way to the violation.
	Trace string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("%s violation after %d cycles: %v", v.Kind, len(v.Path), v.Err)
}

// pathNode is one BFS frontier entry; the choice path to a state is
// recovered by walking parents, so shared prefixes are stored once.
// It also keeps what the search reads of the state, recorded when the
// state was found, so a dequeued state is not rebuilt to ask again.
type pathNode struct {
	parent *pathNode
	choice choice
	depth  int
	fp     [16]byte
	// pending is pendingWork; pinned is the world's pinned mask.
	pending bool
	pinned  uint8
}

func (n *pathNode) path() []choice {
	p := make([]choice, n.depth)
	for i := n.depth - 1; i >= 0; i-- {
		p[i] = n.choice
		n = n.parent
	}
	return p
}

// Explore exhaustively enumerates the scope's reachable states by
// breadth-first search and checks every one. It stops at the first
// violation (returning it with a rendered counterexample) or when the
// frontier empties. A state is rebuilt, by replaying its path, once per
// transition into it, plus once more for a quiescent state's
// CheckCoherence or a deadlock report.
func Explore(sc Scope) (Result, error) {
	ops, values, err := sc.normalize()
	if err != nil {
		return Result{}, err
	}
	base, choices, all := len(ops)+1, numChoices(sc.CPUs, len(ops)), uint8(1<<sc.CPUs-1)
	var enc coherence.Enc

	init := newWorld(&sc, ops, values)
	root := &pathNode{fp: init.fingerprint(&enc), pending: init.pendingWork(), pinned: init.pinned()}
	visited := map[[16]byte]struct{}{root.fp: {}}
	res := Result{States: 1}
	queue := []*pathNode{root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		res.MaxDepth = max(res.MaxDepth, n.depth)
		if n.depth >= maxDepth {
			continue
		}
		prefix := n.path()

		if !n.pending {
			res.Quiescent++
			if n.pinned == all { // no CPU busy, so every one is out of operations
				res.Terminal++
			}
			if err := replay(&sc, ops, values, prefix).CheckCoherence(); err != nil {
				res.Violation = violationFrom(&sc, ops, values, prefix, "quiescent", err)
				return res, nil
			}
		}

		// Every joint choice in ascending order, less those that start
		// an operation on a pinned CPU.
		for v := range choices {
			c := choice(v)
			if !c.silent(n.pinned, base) {
				continue
			}
			res.Transitions++
			succ := replay(&sc, ops, values, prefix)
			succ.step(c, true)
			if succ.err != nil {
				kind := "invariant"
				if strings.HasPrefix(succ.err.Error(), "ghost:") {
					kind = "ghost"
				}
				res.Violation = violationFrom(&sc, ops, values, append(prefix, c), kind, succ.err)
				return res, nil
			}
			fp := succ.fingerprint(&enc)
			if c == 0 && fp == n.fp && n.pending {
				// The all-silent step changed nothing, yet work is in
				// flight: nothing will ever complete it. Deadlock.
				err := fmt.Errorf("no progress with work in flight (%s)", describePending(replay(&sc, ops, values, prefix)))
				res.Violation = violationFrom(&sc, ops, values, prefix, "deadlock", err)
				return res, nil
			}
			if _, seen := visited[fp]; !seen {
				visited[fp] = struct{}{}
				res.States++
				queue = append(queue, &pathNode{parent: n, choice: c, depth: n.depth + 1,
					fp: fp, pending: succ.pendingWork(), pinned: succ.pinned()})
				if sc.MaxStates > 0 && res.States >= sc.MaxStates {
					return res, nil
				}
			}
		}
	}
	res.Complete = true
	return res, nil
}

// replay rebuilds the world from reset and re-applies a choice path
// with per-state checks disabled.
func replay(sc *Scope, ops []op, values []uint32, path []choice) *world {
	w := newWorld(sc, ops, values)
	for _, c := range path {
		w.step(c, false)
	}
	return w
}

// describePending names the components still holding work, for the
// deadlock report.
func describePending(w *world) string {
	var parts []string
	for i := range w.drv {
		if w.drv[i].busy {
			parts = append(parts, fmt.Sprintf("cpu%d %s in flight", i, w.drv[i].op))
		}
	}
	w.Pending(func(part string) { parts = append(parts, part) })
	return strings.Join(parts, ", ")
}

// violationFrom renders a counterexample by replaying the path with
// message tracing enabled: every operation start/completion and every
// NoC send/receive is logged cycle by cycle.
func violationFrom(sc *Scope, ops []op, values []uint32, path []choice, kind string, verr error) *Violation {
	var b strings.Builder
	fmt.Fprintf(&b, "counterexample: %s, %d CPUs, %d banks, %d cycles\n", sc.Proto, sc.CPUs, sc.Banks, len(path))

	w := newWorld(sc, ops, values)
	w.log = &b
	trace := func(now uint64, dir string, self, peer int, m *coherence.Msg) {
		arrow := "->"
		if dir == "rx" {
			arrow = "<-"
		}
		fmt.Fprintf(&b, "  cycle %3d: node %d %s %s node %d  %v addr=%#x word=%#x\n",
			now, self, dir, arrow, peer, m.Kind, m.Addr, m.Word)
	}
	for _, n := range w.Ports {
		n.Trace = trace
	}
	for _, c := range path {
		w.step(c, true)
	}
	fmt.Fprintf(&b, "  FAIL: %v\n", verr)
	return &Violation{Err: verr, Kind: kind, Path: path, Trace: b.String()}
}
