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
type pathNode struct {
	parent *pathNode
	choice choice
	depth  int
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
// frontier empties.
func Explore(sc Scope) (Result, error) {
	if err := sc.normalize(); err != nil {
		return Result{}, err
	}
	ops, values := buildAlphabet(&sc)
	base := len(ops) + 1

	var res Result
	visited := make(map[[16]byte]struct{})
	var queue []*pathNode

	// Reset state.
	init := newWorld(&sc, ops, values)
	root := &pathNode{depth: 0}
	visited[init.fingerprint()] = struct{}{}
	res.States = 1
	queue = append(queue, root)

	digits := make([]int, sc.CPUs)
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n.depth > res.MaxDepth {
			res.MaxDepth = n.depth
		}
		if n.depth >= maxDepth {
			continue
		}
		prefix := n.path()
		// Re-enter the state by replay (checks off: every prefix state
		// was checked when first discovered).
		cur := replay(&sc, ops, values, prefix)
		curFP := cur.fingerprint()

		if !cur.pendingWork() {
			res.Quiescent++
			if !cur.remainingOps() {
				res.Terminal++
			}
			if err := cur.CheckCoherence(); err != nil {
				res.Violation = violationFrom(&sc, ops, values, prefix, "quiescent", err)
				return res, nil
			}
		}

		// Enumerate the joint choices available in this state.
		for i := range digits {
			digits[i] = 0
		}
		for {
			c := joinDigits(digits, base)
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
			fp := succ.fingerprint()
			if c == 0 && fp == curFP && cur.pendingWork() {
				// The all-silent step changed nothing, yet work is in
				// flight: nothing will ever complete it. Deadlock.
				err := fmt.Errorf("no progress with work in flight (%s)", describePending(cur))
				res.Violation = violationFrom(&sc, ops, values, prefix, "deadlock", err)
				return res, nil
			}
			if _, seen := visited[fp]; !seen {
				visited[fp] = struct{}{}
				res.States++
				queue = append(queue, &pathNode{parent: n, choice: c, depth: n.depth + 1})
				if sc.MaxStates > 0 && res.States >= sc.MaxStates {
					return res, nil
				}
			}
			if !nextChoice(digits, cur, ops, &sc, base) {
				break
			}
		}
	}
	res.Complete = true
	return res, nil
}

// nextChoice advances digits to the next admissible joint choice,
// reporting false when exhausted. A busy CPU's digit is pinned to 0
// (it must keep polling); an idle CPU that has used its operation
// budget is pinned to 0 as well.
func nextChoice(digits []int, w *world, ops []op, sc *Scope, base int) bool {
	for i := 0; i < len(digits); i++ {
		d := &w.drv[i]
		if d.busy || d.done >= sc.OpsPerCPU {
			continue // pinned to 0
		}
		if digits[i] < base-1 {
			digits[i]++
			return true
		}
		digits[i] = 0
	}
	return false
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
	base := len(ops) + 1
	for _, c := range path {
		for cpu := range w.drv {
			if !w.drv[cpu].busy {
				if digit := c.digit(cpu, base); digit > 0 {
					fmt.Fprintf(&b, "  cycle %3d: cpu%d begins %s\n", w.now, cpu, ops[digit-1])
				}
			}
		}
		busyBefore := make([]bool, len(w.drv))
		for cpu := range w.drv {
			busyBefore[cpu] = w.drv[cpu].busy || c.digit(cpu, base) > 0
		}
		w.step(c, true)
		for cpu := range w.drv {
			if busyBefore[cpu] && !w.drv[cpu].busy {
				fmt.Fprintf(&b, "  cycle %3d: cpu%d completes %s\n", w.now-1, cpu, w.drv[cpu].op)
			}
		}
	}
	fmt.Fprintf(&b, "  FAIL: %v\n", verr)
	return &Violation{Err: verr, Kind: kind, Path: path, Trace: b.String()}
}
