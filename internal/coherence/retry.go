package coherence

import (
	"errors"
	"fmt"
)

// ErrLivenessBudget is the sentinel a liveness failure wraps: a node
// port retransmitted one transfer more times than its budget allows.
// Under the fault model (internal/fault) every drop is survivable, so
// hitting the budget means the campaign is harsher than the protocols
// are provisioned for — the run must fail fast with a replayable
// diagnostic rather than limp on or hang.
var ErrLivenessBudget = errors.New("retransmission budget exceeded")

// LivenessError is the replayable diagnostic of a budget exhaustion:
// which port, which transfer, how many attempts, when. It wraps
// ErrLivenessBudget (errors.Is matches).
type LivenessError struct {
	// Node and Dst are the NoC endpoints of the failing transfer.
	Node int
	Dst  int
	// Kind and Addr identify the protocol message (the "transaction id"
	// of the diagnostic: a message kind plus its block address).
	Kind MsgKind
	Addr uint32
	// Attempts is the number of retransmissions consumed.
	Attempts int
	// Cycle is when the budget ran out.
	Cycle uint64
}

// Error implements error.
func (e *LivenessError) Error() string {
	return fmt.Sprintf("coherence: node %d: %s addr=%#x to node %d: %v after %d attempts at cycle %d",
		e.Node, e.Kind, e.Addr, e.Dst, ErrLivenessBudget, e.Attempts, e.Cycle)
}

// Unwrap implements errors.Unwrap.
func (e *LivenessError) Unwrap() error { return ErrLivenessBudget }

// The link-level retransmission loop a Node runs when Inject answers
// noc.Lost: after the a-th loss of the same transfer the port holds off
// backoff(a) cycles before re-offering it — retryBase (about one NoC
// crossing) doubled per further loss up to retryCap — and after
// retryBudget losses of one transfer it declares a liveness failure. Even drop=0.5 campaigns survive that, while a
// pathological plan (drop=1 on a link) fails fast within ~10k cycles.
const (
	retryBase   uint64 = 8
	retryCap    uint64 = 1024
	retryBudget        = 16
)

// backoff returns the hold-off before re-offering a transfer lost a >= 1
// times.
func backoff(a int) uint64 { return min(retryBase<<min(a-1, 8), retryCap) }
