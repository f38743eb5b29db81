// Package coherence implements the memory hierarchy of the paper's
// Figure 3 and the write policies compared on it: the paper's two —
// write-through invalidate (WTI) and write-back MESI (WB) — and two
// extensions, write-through update (WTU) and MOESI.
//
// A policy is one row of the Protocols table (params.go): its name, its
// data-cache controller's constructor, and what the platform must know
// about it. The controllers (wti.go serves WTI and WTU, mesi.go WB and
// MOESI) implement DataCache; the directory side of every policy is the
// memory-bank controller (memctrl.go). Around them sit the parts all
// policies share: set-associative cache arrays, the 8-word write
// buffer, the read-only instruction cache, the full-map
// (Censier–Feautrier) or limited-pointer directory, and the NoC port
// (Node).
//
// NewHierarchy (hierarchy.go) is the one place the parts are wired
// together — node ids, sinks, the bank/port attachment. The simulator
// (core), the model checker (modelcheck) and this package's test rigs
// all build a Hierarchy and use its Step, Pending, CheckCoherence,
// CheckRuntime, FlushCaches and Fingerprint; none of them names a
// concrete controller.
//
// # Transport assumptions
//
// The protocols assume, and the noc package provides, FIFO ordering of
// messages per (source node, destination node) pair. Together with the
// directory's one-transaction-per-block serialization this resolves the
// classic directory-protocol races without NACKs or retries:
//
//   - Upgrade vs. invalidate: a cache may send ReqUpgrade for a Shared
//     line and then receive CmdInval for the same block, meaning some
//     other writer was serialized first at the directory. The cache
//     invalidates, acks, and keeps waiting. When the directory later
//     processes the upgrade it observes the requester is no longer a
//     sharer and promotes the upgrade to a full exclusive read,
//     responding with data rather than a data-less upgrade ack.
//   - Writeback vs. fetch: an owner may evict a Modified block (sending
//     ReqWriteBack) and then receive CmdFetch/CmdFetchInval for it. The
//     owner answers "no data"; because each node emits messages through
//     a single FIFO, the writeback is guaranteed to reach the bank
//     before the no-data answer, so the bank's storage is already
//     up to date when it completes the waiting transaction.
//   - ReqWriteBack is never deferred by a busy directory entry (it is
//     the message that unblocks pending transactions), which is the
//     usual deadlock-avoidance rule.
//
// # Blocking and hop costs (the paper's Table 1)
//
// WTI: read hits cost nothing; read misses are blocking 2-hop
// transactions; writes go through the write buffer and are non-blocking
// (2 hops without sharers, 4 with invalidations) until the buffer
// fills. WB-MESI: read misses are 2 hops (clean) or 4 hops (owned
// remotely); write misses and Shared write hits block the processor for
// 2–6 hops including possible fetch and victim writeback.
package coherence
