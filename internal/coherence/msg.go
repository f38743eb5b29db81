package coherence

import "fmt"

// MsgKind identifies a protocol message.
type MsgKind uint8

// Protocol message kinds. Req* travel cache→memory, Rsp* travel in
// both directions (responses), Cmd* are directory commands memory→cache.
const (
	MsgInvalid MsgKind = iota

	// Cache → memory requests.
	ReqRead         // read a block with shared intent
	ReqReadExcl     // read a block with exclusive intent (MESI write allocate)
	ReqUpgrade      // MESI: request exclusivity for an already-Shared block
	ReqWriteThrough // WTI: write one word (with byte enables) to memory
	ReqWriteBack    // MESI: eviction writeback — carries a block
	ReqSwap         // WTI: atomic word swap performed at the bank
	ReqIFetch       // instruction block read (outside the directory)

	// Memory → cache responses.
	RspData       // block data; Excl reports whether exclusivity is granted
	RspIData      // instruction block data
	RspWriteAck   // write-through or write-back acknowledged
	RspUpgradeAck // exclusivity granted without data
	RspSwap       // old word value from an atomic swap

	// Memory → cache directory commands.
	CmdInval      // invalidate the block
	CmdUpdate     // WTU: merge the carried word into the cached copy
	CmdFetch      // owner: supply the block and downgrade to Shared
	CmdFetchInval // owner: supply the block and invalidate

	// Cache → memory directory replies.
	RspInvAck  // invalidation performed (or block no longer present)
	RspFetch   // owner's block data; NoData when silently evicted
	RspC2CDone // requester received a cache-to-cache forwarded block

	numMsgKinds
)

var msgKindNames = [numMsgKinds]string{
	MsgInvalid:      "invalid",
	ReqRead:         "ReqRead",
	ReqReadExcl:     "ReqReadExcl",
	ReqUpgrade:      "ReqUpgrade",
	ReqWriteThrough: "ReqWriteThrough",
	ReqWriteBack:    "ReqWriteBack",
	ReqSwap:         "ReqSwap",
	ReqIFetch:       "ReqIFetch",
	RspData:         "RspData",
	RspIData:        "RspIData",
	RspWriteAck:     "RspWriteAck",
	RspUpgradeAck:   "RspUpgradeAck",
	RspSwap:         "RspSwap",
	CmdInval:        "CmdInval",
	CmdUpdate:       "CmdUpdate",
	CmdFetch:        "CmdFetch",
	CmdFetchInval:   "CmdFetchInval",
	RspInvAck:       "RspInvAck",
	RspFetch:        "RspFetch",
	RspC2CDone:      "RspC2CDone",
}

// String implements fmt.Stringer.
func (k MsgKind) String() string {
	if int(k) < len(msgKindNames) && msgKindNames[k] != "" {
		return msgKindNames[k]
	}
	return fmt.Sprintf("MsgKind(%d)", uint8(k))
}

// Msg is one coherence protocol message. Messages are carried as NoC
// packet payloads; their on-wire size (for traffic accounting) is the
// VCI-like framing computed by WireBytes.
type Msg struct {
	Kind MsgKind
	// Src is the node id of the original requester (so directories can
	// route responses) or of the responding cache for Rsp* kinds.
	Src  int
	Addr uint32 // block-aligned for block operations, word-aligned for word operations
	Word uint32 // word payload (write-through data, swap operand, swap result)
	// ByteEn selects bytes of Word for sub-word write-throughs
	// (bit 0 = least significant byte).
	ByteEn uint8
	Data   []byte // block payload for data-bearing messages
	Excl   bool   // RspData: exclusivity granted
	NoData bool   // RspFetch: owner no longer holds the block
	// Cache-to-cache transfer (the optimization the paper suggests):
	// HasFwd marks a Cmd{Fetch,FetchInval} carrying the requester id in
	// Fwd, asking the owner to send the data straight to it; Forwarded
	// on the RspFetch reports the owner did so.
	HasFwd    bool
	Fwd       int
	Forwarded bool
	// RetainOwner on a RspFetch reports a MOESI owner that supplied
	// the block but keeps it in Owned state (memory stays stale).
	RetainOwner bool
}

// wire framing constants, modelled on a VCI command/response cell:
// address + command + source id + trdid/pktid ≈ 8 bytes of header per
// packet, plus the data payload.
const msgHeaderBytes = 8

// WireBytes returns the packet size used for NoC serialization and for
// the paper's Figure 5 traffic accounting.
func (m *Msg) WireBytes() int {
	n := msgHeaderBytes
	switch m.Kind {
	case ReqWriteThrough, ReqSwap, RspSwap, CmdUpdate:
		n += 4
	case ReqWriteBack, RspData, RspIData:
		n += len(m.Data)
	case RspFetch:
		if !m.NoData {
			n += len(m.Data)
		}
	}
	return n
}

// ensureData sizes m.Data to n bytes, reusing the buffer a pooled
// message kept through recycling and growing it only on first use (or
// on a block-size change, which no configuration does mid-run).
func (m *Msg) ensureData(n int) {
	if cap(m.Data) < n {
		m.Data = make([]byte, n)
		return
	}
	m.Data = m.Data[:n]
}

func (m *Msg) String() string {
	return fmt.Sprintf("%s src=%d addr=%#x", m.Kind, m.Src, m.Addr)
}

// Fingerprint appends every field of the message to e.
func (m *Msg) Fingerprint(e *Enc) {
	e.U32(uint32(m.Kind), uint32(m.Src), m.Addr, m.Word, uint32(m.ByteEn), uint32(m.Fwd))
	e.Bytes(m.Data)
	e.Bools(m.Excl, m.NoData, m.HasFwd, m.Forwarded, m.RetainOwner)
}
