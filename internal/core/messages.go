package core

import (
	"tilevm/internal/guest"
	"tilevm/internal/translate"
)

// Message payloads exchanged on the dynamic network between tile
// kernels. Sizes (in words) are charged at the sending side; the
// constants below approximate the prototype's message formats.

// codeReq asks for the translated block at PC, whose id (DESIGN.md §7
// "Code-path storage") the exec tile interned. ReplyTo is the tile the
// block should be delivered to (the execution tile); FillBank, if ≥ 0,
// is the L1.5 bank the manager should also fill on the way back.
type codeReq struct {
	PC       uint32
	ID       int32
	ReplyTo  int
	FillBank int
	pooled
}

// codeResp delivers a translated block (nil if the address is
// untranslatable — the guest jumped to garbage).
type codeResp struct {
	PC  uint32
	ID  int32
	Res *translate.Result
	pooled
}

// fill populates an L1.5 bank in the background.
type fill struct {
	PC  uint32
	ID  int32
	Res *translate.Result
	pooled
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
	ID         int32
	Depth      int
	Gen        uint64
	Translator *translate.Translator
	Mem        translate.ImageMemory
	// Image identifies what Mem was loaded from, for the translation
	// memo (Config.Memo).
	Image    *guest.Image
	Optimize bool
	pooled
}

// transDone returns a completed translation (Res nil on decode
// failure). Translator is the work unit's: each admission has its own,
// so it names the VM epoch the result belongs to.
type transDone struct {
	PC         uint32
	ID         int32
	Depth      int
	Gen        uint64
	Res        *translate.Result
	Translator *translate.Translator
	pooled
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
// engine.
type vmSwitch struct{}

// switchAck acknowledges a vmSwitch to the coordinating exec tile.
type switchAck struct{}

// memReq is a guest data-memory request from the execution tile to the
// MMU tile. Write requests are posted (no reply needed functionally)
// but the execution tile still waits for acknowledgment on line fills.
// memReq/memFwd/memResp are sent as pointers and recycled through the
// engine's msgPool (they dominate message volume), as are the code
// path's codeReq, codeResp, fill, work and transDone; the consuming
// kernel frees them.
type memReq struct {
	Addr    uint32
	Write   bool
	ReplyTo int // -1 for posted writebacks
	ID      uint64
	pooled
}

// memFwd is the MMU-translated request forwarded to a data bank.
type memFwd struct {
	PAddr   uint32
	Write   bool
	ReplyTo int
	ID      uint64
	pooled
}

// memResp acknowledges a serviced memory request.
type memResp struct {
	ID uint64
	pooled
}

// sysReq proxies a guest syscall: the pinned registers r1..r9
// (EAX..EDI + EFLAGS) by host index.
type sysReq struct {
	Regs [10]uint32
}

// sysResp returns the updated registers and exit status.
type sysResp struct {
	Regs   [10]uint32
	Exited bool
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
// order. Gen, when nonzero, asks for a rebankAck: the manager times an
// excision's recovery (RecoveryCycles) to the ack of its rebank.
type rebank struct {
	Banks []int
	Gen   uint64
}

// rebankAck confirms the MMU installed the bank set with this Gen.
type rebankAck struct {
	Gen uint64
}

// wake tells the execution tile that the manager has excised a tile:
// the slot has lost it, and the MMU may have been pointed past it. A
// line fill waiting on the dead tile is sent again to the re-pointed
// MMU, and a broadcast stops waiting on a target the slot has lost.
type wake struct{}

// heartbeat is a worker tile's periodic liveness beacon to the manager
// (sent only under the recovery protocol). The manager excises a worker
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
