package core

import (
	"tilevm/internal/checkpoint"
	"tilevm/internal/codecache"
	"tilevm/internal/raw"
	"tilevm/internal/sim"
	"tilevm/internal/translate"
)

// maxSpecDepth is the deepest speculation bucket; the return-predictor
// queue sits one level below it.
const maxSpecDepth = 8

// qEntry tracks one guest PC through the translation pipeline.
type qEntry struct {
	depth    int
	queued   bool
	inflight bool
	done     bool
	bad      bool
	// promote marks a done tier-0 entry re-queued for optimizing
	// re-translation (tier-up); workFor forces tier-1 for it, and
	// handleTransDone installs the result over the template version.
	promote bool
	// tier records which translation tier produced the stored block.
	tier uint8
}

// waiter is a demand requester blocked on a translation.
type waiter struct {
	replyTo  int
	fillBank int
	seq      uint64
}

// outWork is a dispatched translation whose transDone has not come
// back. A checkpoint capture snapshots it as queued work (the restored
// machine has fresh slaves); in fault-recovery mode the manager also
// watches it: if no transDone arrives by the deadline the work is
// re-queued (the work or its result was lost, or the slave died).
type outWork struct {
	pc       uint32
	depth    int
	deadline uint64
}

// managerState is the manager tile's bookkeeping: the L2 code cache
// map, the prioritized speculative-translation queues, parked slaves,
// and the dynamic reconfiguration controller.
type managerState struct {
	e  *engine
	c  *raw.TileCtx
	l2 *codecache.L2

	entries map[uint32]*qEntry
	buckets [maxSpecDepth + 2][]uint32 // [0] demand … [maxSpecDepth+1] return-predictor
	waiters map[uint32][]waiter
	parked  []int // idle slave tiles
	roles   map[int]roleKind

	specStored map[uint32]bool // speculatively translated, not yet demanded

	// outstanding maps a busy slave to the work it holds. It is
	// host-side bookkeeping, invisible on the network.
	outstanding map[int]outWork

	// Morphing state.
	transHeavy bool
	lastMorph  uint64

	// Fault-recovery state (robust mode only). banksNow is the
	// authoritative current data-bank interleave; lastBeat and
	// outstanding's deadlines drive the failure detectors.
	// rebankGen/rebankPend implement the acknowledged remap handshake
	// with the MMU tile.
	banksNow       []int
	lastBeat       map[int]uint64
	rebankGen      uint64
	rebankPend     bool
	rebankDeadline uint64
	detectAt       uint64 // bank-excision detection time, for recovery latency
}

// managerKernel runs the manager/L2-code-cache tile.
func (e *engine) managerKernel(c *raw.TileCtx) {
	P := &e.cfg.Params
	st := &managerState{
		e:           e,
		c:           c,
		l2:          codecache.NewL2(P.L2CodeBytes),
		entries:     map[uint32]*qEntry{},
		waiters:     map[uint32][]waiter{},
		roles:       map[int]roleKind{},
		specStored:  map[uint32]bool{},
		outstanding: map[int]outWork{},
	}
	for _, t := range e.pl.slaves {
		st.roles[t] = roleSlave
	}
	for _, t := range e.pl.banks {
		st.roles[t] = roleBank
	}
	// Morphing starts in the translation-heavy configuration (§2.3).
	st.transHeavy = e.cfg.Morph
	if e.robust {
		st.banksNow = append([]int(nil), e.pl.banks...)
		st.lastBeat = map[int]uint64{}
		// Seed liveness at the current time, not zero: after a rollback
		// the clock resumes mid-run (sim.SetStart), and a zero seed would
		// read as every worker having been silent since cycle 0 — the
		// detector would excise the whole machine on its first tick.
		for _, t := range e.pl.slaves {
			st.lastBeat[t] = c.Now()
		}
		for _, t := range e.pl.banks {
			st.lastBeat[t] = c.Now()
		}
	}
	if e.restore != nil {
		e.restoreManager(st)
	}
	e.mgr = st

	for {
		var msg sim.Msg
		if e.robust {
			// Bounded wait so the failure detectors run even when the
			// fabric goes quiet (a dead tile produces silence, not
			// messages).
			st.onTick()
			var ok bool
			msg, ok = c.RecvDeadline(c.Now() + P.HeartbeatPeriod)
			if !ok {
				continue
			}
		} else {
			msg = c.Recv()
		}
		switch m := msg.Payload.(type) {
		case codeReq:
			st.handleCodeReq(m)
		case workReq:
			st.handleWorkReq(msg.From)
		case transDone:
			st.handleTransDone(m, msg.From)
		case promoteReq:
			st.handlePromote(m)
		case heartbeat:
			st.handleBeat(msg.From)
		case rebankAck:
			st.handleRebankAck(m)
		case smcInval:
			st.handleSMCInval(m, msg.From)
		case vmSwitch:
			// Fleet slot handoff: retire this epoch and hand the tile
			// back to the slot wrapper, which restarts the kernel bound
			// to the next guest's engine.
			st.drainForSwitch()
			st.c.Send(msg.From, switchAck{}, wordsCtl)
			return
		}
	}
}

// onTick runs the manager's failure detectors (robust mode only):
// heartbeat timeouts excise dead workers, work watchdogs re-queue
// translations whose results never came back, and an unacknowledged
// rebank is re-sent. All scans iterate tiles in ascending id order so
// recovery decisions are deterministic.
func (st *managerState) onTick() {
	P := &st.e.cfg.Params
	now := st.c.Now()
	for t := 0; t < P.Tiles(); t++ {
		role, isWorker := st.roles[t]
		if !isWorker || role == roleDead {
			continue
		}
		if now-st.lastBeat[t] > P.HeartbeatTimeout {
			st.excise(t)
		}
	}
	for t := 0; t < P.Tiles(); t++ {
		ow, ok := st.outstanding[t]
		if !ok || now < ow.deadline {
			continue
		}
		// The work unit or its result was lost (or the slave is slow or
		// dying): hand the translation to someone else. A late duplicate
		// transDone is harmless — handleTransDone is idempotent.
		st.e.stats.Timeouts++
		st.e.stats.Retries++
		delete(st.outstanding, t)
		en := st.entry(ow.pc)
		en.inflight = false
		st.push(ow.pc, ow.depth)
	}
	st.dispatch()
	if st.rebankPend && now >= st.rebankDeadline {
		st.e.stats.Timeouts++
		st.e.stats.Retries++
		st.sendRebank()
	}
}

// handleBeat records a worker's liveness. A heartbeat from a slave the
// manager believes is busy-with-nothing (not parked, no outstanding
// work) doubles as an implicit work request: it means the slave's
// workReq was lost in flight and it is idle waiting for work that will
// never come.
func (st *managerState) handleBeat(from int) {
	role, isWorker := st.roles[from]
	if !isWorker || role == roleDead {
		return
	}
	st.lastBeat[from] = st.c.Now()
	if role != roleSlave {
		return
	}
	if _, busy := st.outstanding[from]; busy {
		return
	}
	for _, s := range st.parked {
		if s == from {
			return
		}
	}
	st.handleWorkReq(from)
}

// handleRebankAck completes the manager↔MMU remap handshake.
func (st *managerState) handleRebankAck(m rebankAck) {
	if m.Gen != st.rebankGen {
		return // stale ack for a superseded rebank
	}
	st.rebankPend = false
	if st.detectAt > 0 {
		st.e.stats.RecoveryCycles += st.c.Now() - st.detectAt
		st.detectAt = 0
	}
}

// excise removes a dead tile from the virtual architecture — the
// morph-around-failure path. A dead slave's in-flight translation is
// re-queued; a dead bank's address fraction is redistributed over the
// survivors: its dirty lines are accounted as lost writebacks, the
// surviving banks are flushed (the interleave function changed, the
// same flush a morph performs), and the MMU is re-pointed at the new
// bank set via the acknowledged rebank handshake.
func (st *managerState) excise(t int) {
	P := &st.e.cfg.Params
	role := st.roles[t]
	if st.e.rollback != nil {
		return // attempt already aborting; further excisions are moot
	}
	if role == roleBank && st.e.cfg.Recovery == RecoverRollback {
		if bank := st.e.bankOf[t]; bank != nil && bank.Cache.DirtyLines() > 0 {
			// Excising this bank in place would lose its dirty lines'
			// writebacks. Under rollback recovery we abort the attempt
			// instead: Run restores the last checkpoint, removes the tile
			// from the placement, and re-executes — losslessly.
			st.e.rollback = &rollbackReq{tile: t, detect: st.c.Now()}
			st.e.jadd(checkpoint.EvExcise, st.c.Now(), uint64(t), 1)
			st.e.trc().Instant(st.c.Tile, "excise", st.c.Now(), "tile", uint64(t), "rollback", 1)
			st.roles[t] = roleDead
			st.c.Stop()
			return
		}
	}
	st.e.jadd(checkpoint.EvExcise, st.c.Now(), uint64(t), 0)
	st.e.trc().Instant(st.c.Tile, "excise", st.c.Now(), "tile", uint64(t), "rollback", 0)
	st.roles[t] = roleDead
	st.e.stats.RoleRemaps++
	st.c.Tick(P.RecoveryOcc)

	kept := st.parked[:0]
	for _, s := range st.parked {
		if s != t {
			kept = append(kept, s)
		}
	}
	st.parked = kept

	if ow, ok := st.outstanding[t]; ok {
		delete(st.outstanding, t)
		en := st.entry(ow.pc)
		en.inflight = false
		st.push(ow.pc, ow.depth)
	}
	if role != roleBank {
		st.dispatch()
		return
	}

	if bank := st.e.bankOf[t]; bank != nil {
		st.e.stats.WritebacksLost += uint64(bank.Cache.DirtyLines())
	}
	var live []int
	for _, b := range st.banksNow {
		if b != t {
			live = append(live, b)
		}
	}
	if len(live) == 0 {
		// No surviving bank to absorb the address space; leave routing
		// as-is and let the simulation watchdog report the loss.
		return
	}
	st.banksNow = live
	for _, b := range st.banksNow {
		st.c.Send(b, reconfig{Role: roleBank}, wordsCtl)
	}
	st.detectAt = st.c.Now()
	st.sendRebank()
}

// sendRebank (re-)issues the current bank set to the MMU under a fresh
// generation and arms the resend watchdog.
func (st *managerState) sendRebank() {
	st.rebankGen++
	banks := append([]int(nil), st.banksNow...)
	st.c.Send(st.e.pl.mmu, rebank{Banks: banks, Gen: st.rebankGen}, wordsCtl)
	st.rebankPend = true
	st.rebankDeadline = st.c.Now() + st.e.cfg.Params.NetWatchdog
}

// drainForSwitch retires this manager epoch ahead of a fleet slot
// handoff: the parked slaves are dropped (their kernels restart on
// their own vmSwitch and re-register with the next manager), and the
// manager blocks until every in-flight translation has come back —
// results are discarded, the guest that wanted them is gone — so no
// stale transDone can reach the new epoch.
func (st *managerState) drainForSwitch() {
	st.parked = nil
	inflight := 0
	for _, en := range st.entries {
		if en.inflight {
			inflight++
		}
	}
	for inflight > 0 {
		if m, ok := st.c.Recv().Payload.(transDone); ok {
			if en := st.entry(m.PC); en.inflight {
				en.inflight = false
				inflight--
				st.e.stats.Translations++
			}
		}
	}
}

// handleSMCInval drops translations overlapping an overwritten byte
// range (self-modifying code) and resets their pipeline state so the
// new bytes are retranslated on demand.
func (st *managerState) handleSMCInval(m smcInval, from int) {
	P := &st.e.cfg.Params
	st.c.Tick(P.L2CLookupOcc) // page-map walk in the manager's tables
	st.e.smcGen++
	for pg := m.Lo >> 12; pg <= (m.Hi-1)>>12; pg++ {
		st.e.pageInval[pg] = st.e.smcGen
	}
	removed := st.l2.RemoveOverlapping(m.Lo&^0xfff, (m.Hi+0xfff)&^0xfff)
	st.c.Tick(uint64(len(removed)) * P.L2CStoreOcc / 4) // directory updates
	for _, pc := range removed {
		delete(st.entries, pc)
		delete(st.specStored, pc)
	}
	st.c.Send(from, smcAck{}, wordsCtl)
}

func (st *managerState) entry(pc uint32) *qEntry {
	en, ok := st.entries[pc]
	if !ok {
		en = &qEntry{}
		st.entries[pc] = en
	}
	return en
}

// handleCodeReq services a demand request from the execution tile (or
// an L1.5 bank forwarding one).
func (st *managerState) handleCodeReq(m codeReq) {
	P := &st.e.cfg.Params
	t0 := st.c.Now()
	st.c.Tick(P.L2CLookupOcc)
	if res, ok := st.l2.Lookup(m.PC); ok {
		words := res.CodeBytes / 4
		st.c.Tick(uint64(words) * P.L2CWordOcc) // DRAM read traffic
		st.e.trc().Span(st.c.Tile, "l2c_lookup", t0, st.c.Now(), "pc", uint64(m.PC), "hit", 1)
		st.respond(m, res)
		delete(st.specStored, m.PC)
		return
	}
	// Miss: the execution tile stalls until a slave translates it.
	st.e.stats.DemandMisses++
	st.e.trc().Count(tsDemandMisses, t0, 1)
	st.e.trc().Span(st.c.Tile, "l2c_lookup", t0, st.c.Now(), "pc", uint64(m.PC), "hit", 0)
	en := st.entry(m.PC)
	if en.bad {
		st.c.Send(m.ReplyTo, codeResp{PC: m.PC, Res: nil}, wordsCtl)
		return
	}
	st.waiters[m.PC] = append(st.waiters[m.PC], waiter{m.ReplyTo, m.FillBank, m.Seq})
	if !en.inflight {
		st.push(m.PC, 0)
	}
	st.dispatch()
	st.morphEval()
	st.traceQueueDepth()
}

// respond delivers a block to the requester and fills the forwarding
// L1.5 bank.
func (st *managerState) respond(m codeReq, res *translate.Result) {
	words := res.CodeBytes / 4
	st.c.Send(m.ReplyTo, codeResp{PC: m.PC, Res: res, Seq: m.Seq}, words)
	if m.FillBank >= 0 {
		st.c.Send(m.FillBank, fill{PC: m.PC, Res: res}, words)
	}
}

// push enqueues a translation request at the given priority bucket
// (lower = more urgent). Re-pushing at a more urgent depth re-files the
// entry.
func (st *managerState) push(pc uint32, depth int) {
	if st.e.cfg.FIFOSpec && depth > 0 {
		depth = 1 // ablation: single speculative FIFO
	}
	if depth > maxSpecDepth+1 {
		depth = maxSpecDepth + 1
	}
	en := st.entry(pc)
	if en.done || en.bad || en.inflight {
		return
	}
	if en.queued && en.depth <= depth {
		return
	}
	en.depth = depth
	en.queued = true
	st.buckets[depth] = append(st.buckets[depth], pc)
	// Guarded: queue-policy tests drive push without a tile context, so
	// st.c is only touched when a tracer is actually attached.
	if t := st.e.trc(); t != nil {
		t.Instant(st.c.Tile, "enqueue", st.c.Now(), "pc", uint64(pc), "depth", uint64(depth))
	}
}

// pop removes the most urgent queued translation.
func (st *managerState) pop() (uint32, int, bool) {
	for d := range st.buckets {
		for len(st.buckets[d]) > 0 {
			pc := st.buckets[d][0]
			st.buckets[d] = st.buckets[d][1:]
			en := st.entry(pc)
			if !en.queued || en.depth != d || en.inflight || en.done || en.bad {
				continue // stale entry superseded by a re-push
			}
			return pc, d, true
		}
	}
	return 0, 0, false
}

// queuedLen counts live queued work (the morphing metric: the length of
// the "blocks to be translated" queues).
func (st *managerState) queuedLen() int {
	n := 0
	for d := range st.buckets {
		for _, pc := range st.buckets[d] {
			en := st.entry(pc)
			if en.queued && en.depth == d && !en.inflight && !en.done && !en.bad {
				n++
			}
		}
	}
	return n
}

// handleWorkReq parks an idle slave or hands it work.
func (st *managerState) handleWorkReq(slave int) {
	if st.roles[slave] != roleSlave {
		return // reconfigured (or excised) while the request was in flight
	}
	if st.e.robust {
		// A slave asking for work is not translating: if the manager
		// still counts it busy, the work unit or its transDone was lost
		// in flight. Re-queue immediately — waiting out the work
		// watchdog would be correct but slow, and parking the slave
		// without this would overwrite its outstanding entry, orphaning
		// the translation as permanently "inflight".
		if ow, ok := st.outstanding[slave]; ok {
			st.e.stats.Retries++
			delete(st.outstanding, slave)
			en := st.entry(ow.pc)
			en.inflight = false
			st.push(ow.pc, ow.depth)
		}
		// A delayed workReq can race the heartbeat-implied one; never
		// park a slave twice.
		for _, s := range st.parked {
			if s == slave {
				return
			}
		}
	}
	st.c.Tick(st.e.cfg.Params.TransRequestOcc)
	st.parked = append(st.parked, slave)
	st.dispatch()
}

// dispatch pairs parked slaves with queued work.
func (st *managerState) dispatch() {
	if st.e.quarantined {
		return
	}
	for len(st.parked) > 0 {
		pc, depth, ok := st.pop()
		if !ok {
			break
		}
		slave := st.parked[0]
		st.parked = st.parked[1:]
		en := st.entry(pc)
		en.queued = false
		en.inflight = true
		st.outstanding[slave] = outWork{pc: pc, depth: depth,
			deadline: st.c.Now() + st.e.cfg.Params.WorkWatchdog}
		st.e.trc().Instant(st.c.Tile, "assign", st.c.Now(), "pc", uint64(pc), "slave", uint64(slave))
		st.c.Send(slave, st.workFor(pc, depth), wordsCtl)
	}
}

// workFor builds a work unit carrying this VM's translation context.
// The template tier serves only demand work (depth 0): a demand miss
// stalls the execution tile, so cutting translation latency there is
// the whole point of tier-0, while run-ahead speculation is already
// off the critical path and can afford the optimizing tier's better
// (smaller, faster) code. A promotion re-translate forces the
// optimizing tier.
func (st *managerState) workFor(pc uint32, depth int) work {
	return work{
		PC: pc, Depth: depth, Gen: st.e.smcGen,
		Translator: st.e.tr, Mem: st.e.proc.Mem, Image: st.e.img, Optimize: st.e.cfg.Optimize,
		Tier0: st.e.cfg.Tier0 && depth == 0 && !st.entry(pc).promote,
	}
}

// handlePromote re-queues a hot tier-0 block at demand priority for
// optimizing re-translation (tier-up). Stale and duplicate requests —
// the block was already promoted, invalidated by self-modifying code,
// or a promotion is already in flight — are dropped: the guards make
// the request idempotent, so the execution tile may fire and forget.
func (st *managerState) handlePromote(m promoteReq) {
	en := st.entry(m.PC)
	if !en.done || en.promote || en.tier != translate.TierTemplate || !st.l2.Contains(m.PC) {
		return
	}
	st.c.Tick(st.e.cfg.Params.TransRequestOcc)
	en.promote = true
	en.done = false
	st.push(m.PC, 0)
	st.dispatch()
	st.traceQueueDepth()
}

// staleSMC reports whether a finished translation read bytes that were
// overwritten after the work was dispatched.
func (st *managerState) staleSMC(m transDone) bool {
	if m.Res == nil || m.Gen == st.e.smcGen {
		return false
	}
	lo := m.Res.GuestAddr
	hi := lo + m.Res.GuestLen
	for pg := lo >> 12; pg <= (hi-1)>>12; pg++ {
		if g, ok := st.e.pageInval[pg]; ok && g > m.Gen {
			return true
		}
	}
	return false
}

// handleTransDone stores a finished translation, wakes demand waiters,
// and enqueues speculative successors. It is idempotent so that the
// fault-recovery watchdogs may re-dispatch work whose first result was
// merely slow rather than lost.
func (st *managerState) handleTransDone(m transDone, from int) {
	P := &st.e.cfg.Params
	if ow, ok := st.outstanding[from]; ok && ow.pc == m.PC {
		delete(st.outstanding, from)
	}
	en := st.entry(m.PC)
	en.inflight = false
	st.e.stats.Translations++
	st.e.trc().Count(tsTranslations, st.c.Now(), 1)
	if st.staleSMC(m) {
		// Translated from overwritten bytes: discard. A pending demand
		// waiter re-queues at demand priority; speculative results are
		// simply dropped.
		st.e.trc().Instant(st.c.Tile, "trans_stale", st.c.Now(), "pc", uint64(m.PC), "", 0)
		if _, waiting := st.waiters[m.PC]; waiting {
			st.push(m.PC, 0)
			st.dispatch()
		}
		return
	}
	if m.Res == nil {
		en.bad = true
		st.e.trc().Instant(st.c.Tile, "untranslatable", st.c.Now(), "pc", uint64(m.PC), "", 0)
		for _, w := range st.waiters[m.PC] {
			st.c.Send(w.replyTo, codeResp{PC: m.PC, Res: nil, Seq: w.seq}, wordsCtl)
		}
		delete(st.waiters, m.PC)
		st.dispatch()
		return
	}
	en.done = true
	st.e.stats.TransGuestInsts += uint64(m.Res.NumGuest)
	if m.Res.Tier == translate.TierTemplate {
		st.e.stats.Tier0Installs++
	} else {
		st.e.stats.Tier1Installs++
	}
	wasPromote := en.promote
	en.promote = false
	en.tier = m.Res.Tier
	words := m.Res.CodeBytes / 4
	st.c.Tick(P.L2CStoreOcc + uint64(words)*P.L2CWordOcc)
	if wasPromote {
		// Tier-up settlement: install the optimized block over the
		// tier-0 version in place, flush the L1.5 banks holding the
		// stale copy (their acks are fire-and-forget here), and tell the
		// exec tile so it flushes its chained L1 arena at the next
		// dispatch boundary. promoFresh routes that refetch straight to
		// the manager, past any not-yet-flushed L1.5 bank.
		st.l2.Replace(m.PC, m.Res)
		st.e.stats.Promotions++
		st.e.promoGen++
		st.e.promoFresh[m.PC] = true
		st.e.trc().Instant(st.c.Tile, "promote", st.c.Now(), "pc", uint64(m.PC), "gen", st.e.promoGen)
		for _, bankTile := range st.e.pl.l15 {
			st.c.Send(bankTile, smcInval{Lo: m.Res.GuestAddr, Hi: m.Res.GuestAddr + m.Res.GuestLen}, wordsCtl)
		}
	} else {
		st.l2.Insert(m.PC, m.Res)
	}
	st.e.stats.L2CStores++
	st.e.trc().Instant(st.c.Tile, "install", st.c.Now(), "pc", uint64(m.PC), "depth", uint64(m.Depth))
	for pg := m.Res.GuestAddr >> 12; pg <= (m.Res.GuestAddr+m.Res.GuestLen-1)>>12; pg++ {
		st.e.codePages[pg] = true
	}

	if ws, ok := st.waiters[m.PC]; ok {
		for _, w := range ws {
			st.respond(codeReq{PC: m.PC, ReplyTo: w.replyTo, FillBank: w.fillBank, Seq: w.seq}, m.Res)
		}
		delete(st.waiters, m.PC)
	} else if m.Depth > 0 {
		st.specStored[m.PC] = true
	}

	if st.e.cfg.Speculative {
		st.enqueueSuccessors(m.Res, m.Depth)
	}
	st.dispatch()
	st.morphEval()
	st.traceQueueDepth()
}

// enqueueSuccessors implements speculative parallel translation's
// traversal policy (§2.1): follow direct control flow with static
// branch prediction (backward branches predicted taken), put call
// return sites on the low-priority return-predictor queue, and stop at
// unresolvable indirect jumps.
func (st *managerState) enqueueSuccessors(res *translate.Result, depth int) {
	switch res.Kind {
	case translate.ExitFall:
		st.push(res.Target, depth+1)
	case translate.ExitBranch:
		if res.BackwardTaken {
			st.push(res.Target, depth+1)
			st.push(res.FallTarget, depth+2)
		} else {
			st.push(res.FallTarget, depth+1)
			st.push(res.Target, depth+2)
		}
	case translate.ExitCall:
		st.push(res.Target, depth+1)
		if !st.e.cfg.NoReturnPredictor {
			st.push(res.FallTarget, maxSpecDepth+1) // return predictor
		}
	case translate.ExitIndirect:
		if res.FallTarget != 0 && !st.e.cfg.NoReturnPredictor {
			st.push(res.FallTarget, maxSpecDepth+1)
		}
	case translate.ExitRet:
		// Successor comes through the return predictor at call time.
	}
}

// morphEval is the dynamic reconfiguration controller: it inspects the
// translation queues and trades L2 data cache tiles for translation
// tiles (§2.3, §4.4).
func (st *managerState) morphEval() {
	cfg := &st.e.cfg
	if !cfg.Morph {
		return
	}
	now := st.c.Now()
	if now-st.lastMorph < cfg.MorphMinInterval {
		return
	}
	q := st.queuedLen()
	wantTrans := q > cfg.MorphThreshold
	if wantTrans == st.transHeavy {
		return
	}
	st.transHeavy = wantTrans
	st.lastMorph = now
	st.e.stats.Reconfigs++
	st.e.trc().Instant(st.c.Tile, "morph", now, "to_trans", b2u(wantTrans), "qlen", uint64(q))

	newRole := roleBank
	if wantTrans {
		newRole = roleSlave
	}
	perm := st.e.pl.banks[0]
	for _, t := range st.e.pl.switchable {
		if st.roles[t] == roleDead {
			continue // excised after a suspected fail-stop; leave it out
		}
		st.roles[t] = newRole
		st.c.Send(t, reconfig{Role: newRole}, wordsCtl)
	}
	// The permanent bank must flush too: the interleave function
	// changes with the bank count.
	if st.roles[perm] != roleDead {
		st.c.Send(perm, reconfig{Role: roleBank}, wordsCtl)
	}

	var banks []int
	if st.roles[perm] != roleDead {
		banks = append(banks, perm)
	}
	if !wantTrans {
		for i := len(st.e.pl.switchable) - 1; i >= 0; i-- {
			if t := st.e.pl.switchable[i]; st.roles[t] == roleBank {
				banks = append(banks, t)
			}
		}
	}
	switch {
	case len(banks) == 0:
		// Every candidate bank was excised; keep the previous routing.
	case st.e.robust:
		st.banksNow = banks
		st.sendRebank()
	default:
		st.c.Send(st.e.pl.mmu, rebank{Banks: banks}, wordsCtl)
	}

	// Remove reconfigured tiles from the parked pool.
	kept := st.parked[:0]
	for _, s := range st.parked {
		if st.roles[s] == roleSlave {
			kept = append(kept, s)
		}
	}
	st.parked = kept
}
