package core

import (
	"tilevm/internal/guest"
	"tilevm/internal/translate"
)

// Message payloads exchanged on the dynamic network between tile
// kernels. Sizes (in words) are charged at the sending side; the
// constants below approximate the prototype's message formats.

// codeReq asks for the translated block at PC. ReplyTo is the tile the
// block should be delivered to (the execution tile); FillBank, if ≥ 0,
// is the L1.5 bank the manager should also fill on the way back. Seq
// sequence-numbers the requester's demand fetches so retried requests
// under fault injection can be told apart from the original.
type codeReq struct {
	PC       uint32
	ReplyTo  int
	FillBank int
	Seq      uint64
}

// codeResp delivers a translated block (nil if the address is
// untranslatable — the guest jumped to garbage). Seq echoes the
// triggering request's sequence number.
type codeResp struct {
	PC  uint32
	Res *translate.Result
	Seq uint64
}

// fill populates an L1.5 bank in the background.
type fill struct {
	PC  uint32
	Res *translate.Result
}

// workReq is a translation slave asking the manager for work.
type workReq struct{}

// work assigns a translation unit to a slave. Gen snapshots the
// self-modifying-code generation at dispatch so results translated
// from since-overwritten bytes can be discarded. The translator and
// guest memory ride along so a unit is self-contained: the slave
// translates the code of the VM epoch the dispatching manager belongs
// to, and the result goes back to that manager (the message source).
type work struct {
	PC         uint32
	Depth      int
	Gen        uint64
	Translator *translate.Translator
	Mem        translate.ImageMemory
	// Image identifies what Mem was loaded from, for the translation
	// memo (Config.Memo).
	Image    *guest.Image
	Optimize bool
	// Tier0 selects the IR-less template tier for this unit; the
	// manager forces it off when the unit is a promotion re-translate.
	Tier0 bool
}

// promoteReq asks the manager to re-translate a hot tier-0 block with
// the optimizing tier and install the result over the template version
// (tier-up). Sent by the execution tile when a block's retired-
// instruction count crosses the promotion threshold.
type promoteReq struct {
	PC uint32
}

// transDone returns a completed translation (Res nil on decode
// failure).
type transDone struct {
	PC    uint32
	Depth int
	Gen   uint64
	Res   *translate.Result
}

// smcInval announces a guest store into translated code (self-
// modifying code): the receiver drops translations overlapping the
// byte range [Lo, Hi) — the manager surgically, L1.5 banks wholesale —
// and acknowledges with smcAck.
type smcInval struct {
	Lo, Hi uint32
}

// smcAck acknowledges an smcInval.
type smcAck struct{}

// vmSwitch tells a slot's service tile to retire its current VM epoch
// for a fleet slot handoff: the manager drains its in-flight
// translations, workers flush their data banks, and every receiver
// acknowledges with switchAck and starts over bound to the next guest's
// engine (the manager by returning to its slot wrapper).
type vmSwitch struct{}

// switchAck acknowledges a vmSwitch to the coordinating exec tile.
type switchAck struct{}

// memReq is a guest data-memory request from the execution tile to the
// MMU tile. Write requests are posted (no reply needed functionally)
// but the execution tile still waits for acknowledgment on line fills.
// memReq/memFwd/memResp are sent as pointers and recycled through the
// engine's msgPool (they dominate message volume); the consuming
// kernel frees them.
type memReq struct {
	Addr    uint32
	Write   bool
	ReplyTo int // -1 for posted writebacks
	ID      uint64
	pooled  bool // double-free guard, owned by msgPool
}

// memFwd is the MMU-translated request forwarded to a data bank.
type memFwd struct {
	PAddr   uint32
	Write   bool
	ReplyTo int
	ID      uint64
	pooled  bool // double-free guard, owned by msgPool
}

// memResp acknowledges a serviced memory request.
type memResp struct {
	ID     uint64
	pooled bool // double-free guard, owned by msgPool
}

// sysReq proxies a guest syscall: the pinned registers r1..r9
// (EAX..EDI + EFLAGS) by host index. ID makes the proxy an
// at-most-once RPC under fault injection: a retried request carries
// the same ID and the syscall tile replays the cached response rather
// than re-executing a non-idempotent syscall.
type sysReq struct {
	Regs [10]uint32
	ID   uint64
}

// sysResp returns the updated registers and exit status. ID echoes the
// request.
type sysResp struct {
	Regs   [10]uint32
	Exited bool
	ID     uint64
}

// roleKind is a switchable tile's current function.
type roleKind uint8

const (
	roleSlave roleKind = iota
	roleBank
	// roleDead marks a tile the manager has excised after a detected
	// fail-stop; it is never dispatched to or routed through again.
	roleDead
)

// reconfig retargets a switchable tile (dynamic virtual architecture
// reconfiguration). BankIndex is the tile's position in the new bank
// interleave when becoming a bank.
type reconfig struct {
	Role roleKind
}

// rebank tells the MMU tile the new data-bank set, in interleave
// order. Gen, when nonzero, requests a rebankAck (fault-recovery
// protocol: the manager resends an unacknowledged rebank so a dropped
// one cannot leave the MMU routing to a dead bank forever).
type rebank struct {
	Banks []int
	Gen   uint64
}

// rebankAck confirms the MMU installed the bank set with this Gen.
type rebankAck struct {
	Gen uint64
}

// heartbeat is a worker tile's periodic liveness beacon to the manager
// (sent only in fault-recovery mode). The manager excises a worker
// whose heartbeats stop arriving.
type heartbeat struct{}

// Approximate message sizes in words for network charging.
const (
	wordsCodeReq = 2
	wordsMemReq  = 2
	wordsMemResp = 1
	wordsSys     = 10
	wordsCtl     = 2
)
