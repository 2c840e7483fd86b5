package core

import (
	"slices"

	"tilevm/internal/checkpoint"
	"tilevm/internal/codecache"
	"tilevm/internal/raw"
	"tilevm/internal/sim"
	"tilevm/internal/translate"
)

// maxSpecDepth is the deepest speculation bucket; the return-predictor
// queue sits one level below it.
const maxSpecDepth = 8

// qEntry tracks one guest block through the translation pipeline. The
// zero qEntry is a block the manager has not seen.
type qEntry struct {
	depth    int8
	queued   bool
	inflight bool
	done     bool
	bad      bool
	// spec marks a block speculatively translated and not yet demanded.
	spec bool
	// waited marks a block with demand requests in managerState.waiting.
	waited bool
}

// entryChunk is the length of one chunk of the qEntry slab. The slab
// grows a chunk at a time, so a *qEntry stays valid while a handler
// interns new blocks.
const entryChunk = 1024

// waiter is where the answer to a demand request goes: the requester
// and the L1.5 bank to fill (-1 for none). A miss keeps one until the
// translation lands.
type waiter struct {
	id       int32
	replyTo  int
	fillBank int
}

// outWork is a dispatched translation whose transDone has not come
// back. A checkpoint capture snapshots it as queued work (the restored
// machine has fresh slaves), and the excision of its slave re-queues it.
type outWork struct {
	busy  bool
	id    int32
	pc    uint32
	depth int
}

// idQueue is one priority bucket: the block ids from head on are
// queued, oldest first.
type idQueue struct {
	ids  []int32
	head int
}

// live returns the queued ids.
func (q *idQueue) live() []int32 { return q.ids[q.head:] }

// managerState is the manager tile's bookkeeping: the L2 code cache,
// the prioritized speculative-translation queues, parked slaves, and
// the dynamic reconfiguration controller. Its tables are indexed by
// block id (entries) or by tile (roles, outstanding, lastBeat), and the
// slot keeps them across its guests (reset).
type managerState struct {
	e  *engine
	c  *raw.TileCtx
	l2 *codecache.L2

	entries [][]qEntry                // by block id, in chunks of entryChunk
	buckets [maxSpecDepth + 2]idQueue // [0] demand … [maxSpecDepth+1] return-predictor
	waiting []waiter                  // the demand requests not yet answered, in arrival order
	taken   []waiter                  // takeWaiters' result
	parked  []int                     // idle slave tiles
	roles   []roleKind                // by tile
	worker  []bool                    // by tile: a slave or bank of this guest

	// specWasted counts the blocks with qEntry.spec set.
	specWasted uint64

	// outstanding holds, by tile, the work a busy slave holds. It is
	// host-side bookkeeping, invisible on the network.
	outstanding []outWork

	// Morphing state.
	transHeavy bool
	lastMorph  uint64

	// Recovery-protocol state. banksNow is the authoritative current
	// data-bank interleave; lastBeat drives the failure detector.
	// rebankGen numbers the remaps sent to the MMU tile, whose ack of
	// the latest ends a recovery begun at detectAt.
	banksNow  []int
	lastBeat  []uint64 // by tile
	rebankGen uint64
	detectAt  uint64 // bank-excision detection time, for recovery latency

	// A vmSwitch from ackTo waits for the translations still out to
	// come back (beginSwitch).
	switching bool
	ackTo     int
}

// managerTile is the manager/L2-code-cache tile's kernel. It only ever
// answers messages, so it is a handler kernel like the service tiles
// (tiles.go). st is the current VM epoch's state: start binds it to the
// slot's engine, and a fleet vmSwitch runs start again once the epoch
// has drained. The slot keeps st's tables across its guests: start
// first settles the finished guest's results from them (settle).
type managerTile struct {
	h  *slotHost
	st *managerState
}

func (k *managerTile) start(c *raw.TileCtx) {
	e := k.h.cur
	e.tabs.bind(e)
	st := k.st
	if st == nil {
		st = newManagerState(c, &e.cfg.Params)
		k.st = st
	} else {
		st.settle()
		st.e.mgr = nil
	}
	st.reset(e)
	for _, t := range e.pl.slaves {
		st.roles[t], st.worker[t] = roleSlave, true
	}
	for _, t := range e.pl.banks {
		st.roles[t], st.worker[t] = roleBank, true
	}
	// Morphing starts in the translation-heavy configuration (§2.3).
	st.transHeavy = e.cfg.Morph
	if e.recovery {
		st.banksNow = append(st.banksNow, e.pl.banks...)
		// Seed liveness at the current time, not zero: an epoch a
		// handoff starts begins mid-run, and a zero seed would read as
		// every worker having been silent since cycle 0 — the detector
		// would excise the whole slot on its first tick.
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
	st.watch()
}

// newManagerState builds the manager's tables for a fabric of p's
// size.
func newManagerState(c *raw.TileCtx, p *raw.Params) *managerState {
	n := p.Tiles()
	return &managerState{
		c:           c,
		l2:          codecache.NewL2(p.L2CodeBytes),
		roles:       make([]roleKind, n),
		worker:      make([]bool, n),
		outstanding: make([]outWork, n),
		lastBeat:    make([]uint64, n),
	}
}

// reset binds the state to guest e with every table empty, keeping the
// tables' storage.
func (st *managerState) reset(e *engine) {
	*st = managerState{
		e:           e,
		c:           st.c,
		l2:          st.l2,
		entries:     st.entries,
		buckets:     st.buckets,
		waiting:     st.waiting[:0],
		taken:       st.taken,
		parked:      st.parked[:0],
		roles:       st.roles,
		worker:      st.worker,
		outstanding: st.outstanding,
		banksNow:    st.banksNow[:0],
		lastBeat:    st.lastBeat,
	}
	st.l2.Reset()
	for _, ch := range st.entries {
		clear(ch)
	}
	for d := range st.buckets {
		st.buckets[d] = idQueue{ids: st.buckets[d].ids[:0]}
	}
	clear(st.roles)
	clear(st.worker)
	clear(st.outstanding)
	clear(st.lastBeat)
}

// settle writes the manager's share of its guest's results into the
// guest's metrics.
func (st *managerState) settle() {
	st.e.stats.L2CAccess = st.l2.Accesses
	st.e.stats.L2CMisses = st.l2.Misses
	st.e.stats.SpecWasted = st.specWasted
}

func (k *managerTile) handle(c *raw.TileCtx, msg sim.Msg) {
	st := k.st
	if st.switching {
		if st.drained(msg) {
			c.Send(st.ackTo, switchAck{}, wordsCtl)
			k.start(c)
		}
		return
	}
	switch m := msg.Payload.(type) {
	case *codeReq:
		st.handleCodeReq(m)
		st.e.pool.codeReqs.put(m)
	case workReq:
		st.handleWorkReq(msg.From)
	case *transDone:
		st.handleTransDone(m, msg.From)
		st.e.pool.dones.put(m)
	case heartbeat:
		st.handleBeat(msg.From)
	case rebankAck:
		st.handleRebankAck(m)
	case smcInval:
		st.handleSMCInval(m, msg.From)
	case vmSwitch:
		// Fleet slot handoff: retire this epoch, then ack and start over
		// bound to the slot's next engine.
		if st.beginSwitch(msg.From) {
			c.Send(msg.From, switchAck{}, wordsCtl)
			k.start(c)
		}
		return
	}
	st.watch()
}

// watch ends every dispatch outside a switch. Under the recovery
// protocol it excises every worker silent past HeartbeatTimeout, then
// arms a timeout for the first cycle at which a live worker can be
// overdue, so detection runs even when the fabric goes quiet (a dead
// tile produces silence, not messages). Tiles are scanned in ascending
// id order so recovery decisions are deterministic.
func (st *managerState) watch() {
	if !st.e.recovery {
		return
	}
	P := &st.e.cfg.Params
	now := st.c.Now()
	var due uint64
	for t := 0; t < P.Tiles(); t++ {
		if !st.live(t) {
			continue
		}
		if at := st.lastBeat[t] + P.HeartbeatTimeout + 1; now >= at {
			st.excise(t)
		} else if due == 0 || at < due {
			due = at
		}
	}
	// After a rollback's excision the admission is cancelled: nothing is
	// left to detect.
	if due > 0 && st.e.rollback == nil {
		st.c.P.SetDeadline(due)
	}
}

// live reports whether t is a worker the manager has not excised.
func (st *managerState) live(t int) bool {
	return st.worker[t] && st.roles[t] != roleDead
}

// handleBeat records a worker's liveness.
func (st *managerState) handleBeat(from int) {
	if st.live(from) {
		st.lastBeat[from] = st.c.Now()
	}
}

// handleRebankAck ends the recovery the latest rebank completes.
func (st *managerState) handleRebankAck(m rebankAck) {
	if m.Gen != st.rebankGen {
		return // stale ack for a superseded rebank
	}
	if st.detectAt > 0 {
		st.e.stats.RecoveryCycles += st.c.Now() - st.detectAt
		st.detectAt = 0
	}
}

// excise removes a dead tile from the virtual architecture — the
// morph-around-failure path — and from the slot's placement, so no
// later admission uses it either (unless it is the slot's last of its
// kind). A dead slave's in-flight translation is re-queued. A clean
// bank's address fraction is redistributed over the survivors: the
// surviving banks are flushed (the interleave function changed, the
// same flush a morph performs), and the MMU is re-pointed at the new
// bank set. A dead bank holding dirty lines cancels the admission for a
// rollback instead: the MMU is pointed past it, and the exec tile stops
// at its next block boundary, where the slot re-admits the guest from
// its latest checkpoint (fleetRun.rollBack) — losslessly. Every
// excision ends with a wake to the exec tile, on which a line fill
// waiting on the dead tile is sent again and a hand-off stops waiting
// for it.
func (st *managerState) excise(t int) {
	if st.e.rollback != nil {
		return // admission already cancelled; further excisions are moot
	}
	P := &st.e.cfg.Params
	now := st.c.Now()
	role := st.roles[t]
	st.roles[t] = roleDead
	st.e.slot.dropWorker(t)
	bank := st.e.bankOf[t]
	dirty := role == roleBank && bank != nil && bank.Cache.DirtyLines() > 0
	st.e.jadd(checkpoint.EvExcise, now, uint64(t), b2u(dirty))
	st.e.trc().Instant(st.c.Tile, "excise", now, "tile", uint64(t), "rollback", b2u(dirty))
	defer st.c.Send(st.e.pl.exec, wake{}, wordsCtl)
	live := slices.DeleteFunc(slices.Clone(st.banksNow), func(b int) bool { return b == t })
	if dirty {
		st.e.rollback = &rollbackReq{tile: t, detect: now}
		st.e.cancelled = true
		if len(live) > 0 {
			st.banksNow = live
			st.sendRebank()
		}
		return
	}
	st.e.stats.RoleRemaps++
	st.c.Tick(P.RecoveryOcc)
	st.parked = slices.DeleteFunc(st.parked, func(s int) bool { return s == t })
	if ow := st.outstanding[t]; ow.busy {
		st.outstanding[t] = outWork{}
		st.entry(ow.id).inflight = false
		st.push(ow.id, ow.depth)
	}
	if role != roleBank {
		st.dispatch()
		return
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

// sendRebank issues the current bank set to the MMU under a fresh
// generation.
func (st *managerState) sendRebank() {
	st.rebankGen++
	st.c.Send(st.e.pl.mmu, rebank{Banks: slices.Clone(st.banksNow), Gen: st.rebankGen}, wordsCtl)
}

// beginSwitch retires this manager epoch ahead of a fleet slot
// handoff: the parked slaves are dropped (their kernels restart on their
// own vmSwitch and re-register with the next manager), and the vmSwitch
// from ackTo is acked only once every translation out at a slave has
// come back — results are discarded, the guest that wanted them is gone
// — so the next epoch starts with its slaves idle. A result that lands
// after the ack is the next epoch's to drop (handleTransDone). It
// reports whether nothing is out, in which case the ack is due at once.
func (st *managerState) beginSwitch(ackTo int) bool {
	st.parked = nil
	st.switching, st.ackTo = true, ackTo
	return st.drained(sim.Msg{})
}

// drained takes one message while a switch waits: a transDone for
// outstanding work counts it in, everything else is discarded. It
// reports whether no work is out at a slave the slot still has: one it
// has lost will never answer, and every message checks again — a live
// worker's heartbeat, at the latest.
func (st *managerState) drained(msg sim.Msg) bool {
	if m, ok := msg.Payload.(*transDone); ok {
		// By PC: a result from an earlier epoch carries an id of another
		// table.
		if ow := st.outstanding[msg.From]; ow.busy && ow.pc == m.PC {
			st.outstanding[msg.From] = outWork{}
			st.entry(ow.id).inflight = false
			st.e.stats.Translations++
		}
		st.e.pool.dones.put(m)
	}
	for t, ow := range st.outstanding {
		if ow.busy && !st.e.slot.gone(t) {
			return false
		}
	}
	return true
}

// handleSMCInval drops translations overlapping an overwritten byte
// range (self-modifying code) and resets their pipeline state so the
// new bytes are retranslated on demand.
func (st *managerState) handleSMCInval(m smcInval, from int) {
	P := &st.e.cfg.Params
	st.c.Tick(P.L2CLookupOcc) // page-map walk in the manager's tables
	st.e.smcGen++
	for pg := m.Lo >> 12; pg <= (m.Hi-1)>>12; pg++ {
		st.e.tabs.pageInval.set(pg, st.e.smcGen)
	}
	removed := st.l2.RemoveOverlapping(m.Lo&^0xfff, (m.Hi+0xfff)&^0xfff)
	st.c.Tick(uint64(len(removed)) * P.L2CStoreOcc / 4) // directory updates
	for _, id := range removed {
		en := st.entry(id)
		st.setSpec(en, false)
		*en = qEntry{waited: en.waited}
	}
	st.c.Send(from, smcAck{}, wordsCtl)
}

// entry returns block id's pipeline state.
func (st *managerState) entry(id int32) *qEntry {
	for int(id) >= len(st.entries)*entryChunk {
		st.entries = append(st.entries, make([]qEntry, entryChunk))
	}
	return &st.entries[id/entryChunk][id%entryChunk]
}

// setSpec sets en's spec mark, keeping specWasted its count.
func (st *managerState) setSpec(en *qEntry, spec bool) {
	if en.spec != spec {
		en.spec = spec
		if spec {
			st.specWasted++
		} else {
			st.specWasted--
		}
	}
}

// handleCodeReq services a demand request from the execution tile (or
// an L1.5 bank forwarding one).
func (st *managerState) handleCodeReq(m *codeReq) {
	P := &st.e.cfg.Params
	t0 := st.c.Now()
	st.c.Tick(P.L2CLookupOcc)
	if res, ok := st.l2.Lookup(m.ID); ok {
		words := len(res.Code)
		st.c.Tick(uint64(words) * P.L2CWordOcc) // DRAM read traffic
		st.e.trc().Span(st.c.Tile, "l2c_lookup", t0, st.c.Now(), "pc", uint64(m.PC), "hit", 1)
		st.respond(m.PC, waiter{m.ID, m.ReplyTo, m.FillBank}, res)
		st.setSpec(st.entry(m.ID), false)
		return
	}
	// Miss: the execution tile stalls until a slave translates it.
	st.e.stats.DemandMisses++
	st.e.trc().Count(tsDemandMisses, t0, 1)
	st.e.trc().Span(st.c.Tile, "l2c_lookup", t0, st.c.Now(), "pc", uint64(m.PC), "hit", 0)
	en := st.entry(m.ID)
	if en.bad {
		st.sendResp(m.ReplyTo, m.PC, m.ID, nil, wordsCtl)
		return
	}
	st.waiting = append(st.waiting, waiter{m.ID, m.ReplyTo, m.FillBank})
	en.waited = true
	if !en.inflight {
		st.push(m.ID, 0)
	}
	st.dispatch()
	st.morphEval()
	st.traceQueueDepth()
}

// respond delivers block w.id, at guest PC pc, to the requester and
// fills the forwarding L1.5 bank.
func (st *managerState) respond(pc uint32, w waiter, res *translate.Result) {
	words := len(res.Code)
	st.sendResp(w.replyTo, pc, w.id, res, words)
	if w.fillBank >= 0 {
		f := st.e.pool.fills.get()
		*f = fill{PC: pc, ID: w.id, Res: res}
		st.c.Send(w.fillBank, f, words)
	}
}

// sendResp sends a pooled codeResp.
func (st *managerState) sendResp(to int, pc uint32, id int32, res *translate.Result, words int) {
	r := st.e.pool.codeResps.get()
	*r = codeResp{PC: pc, ID: id, Res: res}
	st.c.Send(to, r, words)
}

// takeWaiters removes block id's waiters from the waiting list and
// returns them in arrival order; the slice is valid until the next
// call.
func (st *managerState) takeWaiters(en *qEntry, id int32) []waiter {
	if !en.waited {
		return nil
	}
	en.waited = false
	st.taken = st.taken[:0]
	kept := st.waiting[:0]
	for _, w := range st.waiting {
		if w.id == id {
			st.taken = append(st.taken, w)
		} else {
			kept = append(kept, w)
		}
	}
	st.waiting = kept
	return st.taken
}

// push enqueues a translation request for block id at the given
// priority bucket (lower = more urgent). Re-pushing at a more urgent
// depth re-files the entry.
func (st *managerState) push(id int32, depth int) {
	if st.e.cfg.FIFOSpec && depth > 0 {
		depth = 1 // ablation: single speculative FIFO
	}
	if depth > maxSpecDepth+1 {
		depth = maxSpecDepth + 1
	}
	en := st.entry(id)
	if en.done || en.bad || en.inflight {
		return
	}
	if en.queued && int(en.depth) <= depth {
		return
	}
	en.depth = int8(depth)
	en.queued = true
	st.buckets[depth].ids = append(st.buckets[depth].ids, id)
	// Guarded: queue-policy tests drive push without a tile context, so
	// st.c is only touched when a tracer is actually attached.
	if t := st.e.trc(); t != nil {
		t.Instant(st.c.Tile, "enqueue", st.c.Now(), "pc", uint64(st.e.tabs.ids.PC(id)), "depth", uint64(depth))
	}
}

// pushPC enqueues the block at guest PC pc, interning it.
func (st *managerState) pushPC(pc uint32, depth int) { st.push(st.e.tabs.ids.ID(pc), depth) }

// pop removes the most urgent queued translation.
func (st *managerState) pop() (int32, int, bool) {
	for d := range st.buckets {
		q := &st.buckets[d]
		for q.head < len(q.ids) {
			id := q.ids[q.head]
			q.head++
			if q.head == len(q.ids) {
				q.ids, q.head = q.ids[:0], 0
			}
			en := st.entry(id)
			if !en.queued || int(en.depth) != d || en.inflight || en.done || en.bad {
				continue // stale entry superseded by a re-push
			}
			return id, d, true
		}
	}
	return 0, 0, false
}

// queuedLen counts live queued work (the morphing metric: the length of
// the "blocks to be translated" queues).
func (st *managerState) queuedLen() int {
	n := 0
	for d := range st.buckets {
		for _, id := range st.buckets[d].live() {
			en := st.entry(id)
			if en.queued && int(en.depth) == d && !en.inflight && !en.done && !en.bad {
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
	// A slave the manager still counts busy sent its result before this
	// request, and the one-word request overtook it: the result lands
	// whatever the slave does next. The slave is parked, and may take
	// new work, on the recovery protocol as on the plain one.
	st.c.Tick(st.e.cfg.Params.TransRequestOcc)
	st.parked = append(st.parked, slave)
	st.dispatch()
}

// dispatch pairs parked slaves with queued work, none once the guest
// is cancelled.
func (st *managerState) dispatch() {
	if st.e.cancelled {
		return
	}
	for len(st.parked) > 0 {
		id, depth, ok := st.pop()
		if !ok {
			break
		}
		slave := st.parked[0]
		st.parked = slices.Delete(st.parked, 0, 1) // keeps the storage
		en := st.entry(id)
		en.queued = false
		en.inflight = true
		pc := st.e.tabs.ids.PC(id)
		st.outstanding[slave] = outWork{busy: true, id: id, pc: pc, depth: depth}
		st.e.trc().Instant(st.c.Tile, "assign", st.c.Now(), "pc", uint64(pc), "slave", uint64(slave))
		st.c.Send(slave, st.workFor(pc, id, depth), wordsCtl)
	}
}

// workFor builds a work unit carrying this VM's translation context.
func (st *managerState) workFor(pc uint32, id int32, depth int) *work {
	w := st.e.pool.works.get()
	*w = work{
		PC: pc, ID: id, Depth: depth, Gen: st.e.smcGen,
		Translator: st.e.tr, Mem: st.e.proc.Mem, Image: st.e.img, Optimize: st.e.cfg.Optimize,
	}
	return w
}

// staleSMC reports whether a finished translation read bytes that were
// overwritten after the work was dispatched.
func (st *managerState) staleSMC(m *transDone) bool {
	if m.Res == nil || m.Gen == st.e.smcGen {
		return false
	}
	lo := m.Res.GuestAddr
	hi := lo + m.Res.GuestLen
	for pg := lo >> 12; pg <= (hi-1)>>12; pg++ {
		if st.e.tabs.pageInval.get(pg) > m.Gen {
			return true
		}
	}
	return false
}

// handleTransDone stores a finished translation, wakes demand waiters,
// and enqueues speculative successors. It is idempotent, as a slave
// stalled past HeartbeatTimeout is excised and its work re-queued, yet
// it may still answer: a second result for a block is counted and not
// stored again. A result for another epoch's guest is dropped:
// one sent before a hand-off can land after it (a slave the slot
// dropped is not waited for, and a long block's result can be overtaken
// by its slave's next one).
func (st *managerState) handleTransDone(m *transDone, from int) {
	P := &st.e.cfg.Params
	if m.Translator != st.e.tr {
		return
	}
	if ow := st.outstanding[from]; ow.busy && ow.id == m.ID {
		st.outstanding[from] = outWork{}
	}
	en := st.entry(m.ID)
	en.inflight = false
	st.e.stats.Translations++
	st.e.trc().Count(tsTranslations, st.c.Now(), 1)
	if en.done || en.bad {
		return
	}
	if st.staleSMC(m) {
		// Translated from overwritten bytes: discard. A pending demand
		// waiter re-queues at demand priority; speculative results are
		// simply dropped.
		st.e.trc().Instant(st.c.Tile, "trans_stale", st.c.Now(), "pc", uint64(m.PC), "", 0)
		if en.waited {
			st.push(m.ID, 0)
			st.dispatch()
		}
		return
	}
	if m.Res == nil {
		en.bad = true
		st.e.trc().Instant(st.c.Tile, "untranslatable", st.c.Now(), "pc", uint64(m.PC), "", 0)
		for _, w := range st.takeWaiters(en, m.ID) {
			st.sendResp(w.replyTo, m.PC, m.ID, nil, wordsCtl)
		}
		st.dispatch()
		return
	}
	en.done = true
	st.e.stats.TransGuestInsts += uint64(m.Res.NumGuest)
	words := len(m.Res.Code)
	st.c.Tick(P.L2CStoreOcc + uint64(words)*P.L2CWordOcc)
	st.l2.Insert(m.ID, m.PC, m.Res)
	st.e.stats.L2CStores++
	st.e.trc().Instant(st.c.Tile, "install", st.c.Now(), "pc", uint64(m.PC), "depth", uint64(m.Depth))
	st.e.markCode(m.Res)

	if en.waited {
		for _, w := range st.takeWaiters(en, m.ID) {
			st.respond(m.PC, w, m.Res)
		}
	} else if m.Depth > 0 {
		st.setSpec(en, true)
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
		st.pushPC(res.Target, depth+1)
	case translate.ExitBranch:
		if res.BackwardTaken {
			st.pushPC(res.Target, depth+1)
			st.pushPC(res.FallTarget, depth+2)
		} else {
			st.pushPC(res.FallTarget, depth+1)
			st.pushPC(res.Target, depth+2)
		}
	case translate.ExitCall:
		st.pushPC(res.Target, depth+1)
		if !st.e.cfg.NoReturnPredictor {
			st.pushPC(res.FallTarget, maxSpecDepth+1) // return predictor
		}
	case translate.ExitIndirect:
		if res.FallTarget != 0 && !st.e.cfg.NoReturnPredictor {
			st.pushPC(res.FallTarget, maxSpecDepth+1)
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
		st.roles[t], st.worker[t] = newRole, true
		st.c.Send(t, reconfig{Role: newRole}, wordsCtl)
	}
	// The permanent bank must flush too: the interleave function
	// changes with the bank count.
	st.c.Send(perm, reconfig{Role: roleBank}, wordsCtl)
	banks := []int{perm}
	if !wantTrans {
		for i := len(st.e.pl.switchable) - 1; i >= 0; i-- {
			banks = append(banks, st.e.pl.switchable[i])
		}
	}
	st.c.Send(st.e.pl.mmu, rebank{Banks: banks}, wordsCtl)

	// Remove reconfigured tiles from the parked pool.
	kept := st.parked[:0]
	for _, s := range st.parked {
		if st.roles[s] == roleSlave {
			kept = append(kept, s)
		}
	}
	st.parked = kept
}
