package coherence

import (
	"errors"
	"testing"

	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/sim"
)

func TestRetryPolicyBackoff(t *testing.T) {
	// 8 cycles after the first loss, doubling to the 1024-cycle cap, which
	// holds through the budget and past it (the port keeps retrying).
	want := []uint64{8, 16, 32, 64, 128, 256, 512, 1024, 1024, 1024, 1024, 1024, 1024, 1024, 1024, 1024, 1024}
	for a, w := range want {
		if got := backoff(a + 1); got != w {
			t.Errorf("backoff(%d) = %d; want %d", a+1, got, w)
		}
	}
	if got := backoff(80); got != retryCap {
		t.Errorf("backoff(80) = %d; want the cap %d", got, retryCap)
	}
}

// lossyNet is a minimal noc.Network: it loses the first `losses`
// injections (or every one when losses < 0), then accepts.
type lossyNet struct {
	losses     int
	injectedAt []uint64
	// rejectOnly, when set, refuses injections instead of losing them —
	// plain backpressure.
	rejectOnly bool
}

func (d *lossyNet) Inject(p noc.Packet, now uint64) noc.Fate {
	if d.rejectOnly {
		return noc.Refused
	}
	if d.losses != 0 {
		if d.losses > 0 {
			d.losses--
		}
		return noc.Lost
	}
	d.injectedAt = append(d.injectedAt, now)
	return noc.Sent
}

func (d *lossyNet) Deliver(node int, now uint64) (noc.Packet, bool) { return noc.Packet{}, false }
func (d *lossyNet) ArrivalAt(node int) uint64                       { return sim.NoWake }
func (d *lossyNet) Attach(self sim.Waker, nodes []sim.Waker)        {}
func (d *lossyNet) Tick(now uint64) uint64                          { return sim.NoWake }
func (d *lossyNet) Quiet() bool                                     { return true }
func (d *lossyNet) NextWake(now uint64) uint64                      { return ^uint64(0) }
func (d *lossyNet) Stats() noc.Stats                                { return noc.Stats{} }
func (d *lossyNet) PortFlits() []uint64                             { return nil }
func (d *lossyNet) Reach(dst int, now uint64) uint64                { return now + 1 }

type nullSink struct{}

func (nullSink) Accept(now uint64) bool       { return true }
func (nullSink) HandleMsg(m *Msg, now uint64) {}

// The retransmission schedule is a pure function of the loss count: with
// two losses the transfer must go out exactly at cycle 8+16=24, having
// held the port 7+15 cycles in backoff.
func TestNodeRetransmitSchedule(t *testing.T) {
	net := &lossyNet{losses: 2}
	n := newNode(0, net, nullSink{}, new(msgSlab))
	rec := obs.New(obs.Config{})
	n.Obs = rec
	n.SendCtrl(Msg{Kind: ReqWriteThrough, Addr: 0x40}, 1, 0)
	for now := uint64(0); now <= 24; now++ {
		n.Tick(now)
	}
	if len(net.injectedAt) != 1 || net.injectedAt[0] != 24 {
		t.Fatalf("injectedAt = %v; want exactly [24] (losses at 0 and 8, success at 8+16)", net.injectedAt)
	}
	if n.Retransmits != 2 {
		t.Errorf("Retransmits = %d; want 2", n.Retransmits)
	}
	if n.BackoffCycles != 22 {
		t.Errorf("BackoffCycles = %d; want 7+15 = 22", n.BackoffCycles)
	}
	if err := n.RetryErr(); err != nil {
		t.Errorf("RetryErr = %v; want nil within budget", err)
	}
	rep := rec.LatencyReport()
	if rep == nil || len(rep.Entries) != 1 || rep.Entries[0].Kind != obs.LatRetry.String() || rep.Entries[0].Count != 1 || rep.Entries[0].Max < 24 {
		t.Errorf("latency report %+v; want one LatRetry sample covering the 24-cycle fight", rep)
	}
	// The FSM is idle again: a fresh message goes straight out.
	n.SendCtrl(Msg{Kind: ReqWriteThrough, Addr: 0x44}, 1, 25)
	n.Tick(25)
	if len(net.injectedAt) != 2 || net.injectedAt[1] != 25 {
		t.Fatalf("post-recovery injectedAt = %v; want immediate injection at 25", net.injectedAt)
	}
}

// Plain backpressure must not arm the FSM: no budget consumed, no
// backoff hold, re-offer on the very next cycle.
func TestNodeBackpressureIsNotALoss(t *testing.T) {
	net := &lossyNet{rejectOnly: true}
	n := newNode(0, net, nullSink{}, new(msgSlab))
	n.SendCtrl(Msg{Kind: ReqWriteThrough, Addr: 0x40}, 1, 0)
	n.Tick(0)
	n.Tick(1)
	if n.Retransmits != 0 || n.BackoffCycles != 0 || n.RetryErr() != nil {
		t.Fatalf("backpressure armed the retry FSM: retransmits=%d backoff=%d err=%v",
			n.Retransmits, n.BackoffCycles, n.RetryErr())
	}
	net.rejectOnly = false
	n.Tick(2)
	if len(net.injectedAt) != 1 || net.injectedAt[0] != 2 {
		t.Fatalf("injectedAt = %v; want [2] once backpressure cleared", net.injectedAt)
	}
}

// The 17th loss of one transfer spends the 16-loss budget: 8+16+...+1024
// and eight more 1024s, cycle 10232.
func TestNodeRetryBudgetExhaustion(t *testing.T) {
	net := &lossyNet{losses: -1} // the wire never lets anything through
	n := newNode(3, net, nullSink{}, new(msgSlab))
	n.SendCtrl(Msg{Kind: CmdInval, Addr: 0x80}, 1, 0)
	var now uint64
	for ; n.RetryErr() == nil && now < 20000; now++ {
		n.Tick(now)
	}
	err := n.RetryErr()
	if err == nil {
		t.Fatal("budget exhaustion never surfaced")
	}
	if !errors.Is(err, ErrLivenessBudget) {
		t.Fatalf("RetryErr = %v; want errors.Is ErrLivenessBudget", err)
	}
	var le *LivenessError
	if !errors.As(err, &le) {
		t.Fatalf("RetryErr %T does not unwrap to *LivenessError", err)
	}
	if le.Node != 3 || le.Dst != 1 || le.Kind != CmdInval || le.Addr != 0x80 || le.Attempts != retryBudget+1 || le.Cycle != 10232 {
		t.Fatalf("diagnostic %+v; want node 3 → 1, %v addr 0x80, %d attempts at cycle 10232", le, CmdInval, retryBudget+1)
	}
	if n.Retransmits < retryBudget+1 {
		t.Fatalf("Retransmits = %d; want >= budget+1", n.Retransmits)
	}
	// Deterministic: the same losses exhaust the budget at the same cycle.
	net2 := &lossyNet{losses: -1}
	n2 := newNode(3, net2, nullSink{}, new(msgSlab))
	n2.SendCtrl(Msg{Kind: CmdInval, Addr: 0x80}, 1, 0)
	var now2 uint64
	for ; n2.RetryErr() == nil && now2 < 20000; now2++ {
		n2.Tick(now2)
	}
	if now != now2 {
		t.Fatalf("budget exhaustion cycle diverged between identical runs: %d vs %d", now, now2)
	}
}
