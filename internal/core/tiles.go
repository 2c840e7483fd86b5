package core

import (
	"tilevm/internal/checkpoint"
	"tilevm/internal/codecache"
	"tilevm/internal/dcache"
	"tilevm/internal/mmu"
	"tilevm/internal/raw"
	"tilevm/internal/sim"
	"tilevm/internal/translate"
)

// The service tiles — manager, MMU, syscall proxy, L1.5 code banks,
// translation slaves and L2 data banks — only ever answer messages, so
// each is a handler kernel (raw.SpawnTileHandler): a state struct whose
// start runs at the tile's first dispatch and whose handle runs once per
// message, to completion, on whichever goroutine dispatched it; neither
// may block. The execution tile is the only goroutine of a slot. start
// binds the kernel to its slot's current engine (h.cur); a fleet
// vmSwitch is acked and answered by running start again, state fresh
// (the manager first waits out its in-flight translations). Run's
// machine is a slot that switches only to roll its guest back.
type tileKernel interface {
	start(*raw.TileCtx)
	handle(*raw.TileCtx, sim.Msg)
}

// spawnService registers the service tiles of slot h, carved as pl, in
// the order every run has spawned them (pids break same-cycle ties).
func spawnService(m *raw.Machine, pl *placement, h *slotHost) {
	add := func(t int, name string, k tileKernel) {
		h.procs = append(h.procs, m.SpawnTileHandler(t, name, k.start, k.handle))
	}
	add(pl.manager, "manager", &managerTile{h: h})
	add(pl.mmu, "mmu", &mmuTile{h: h})
	add(pl.sys, "syscall", &sysTile{h: h})
	for _, t := range pl.l15 {
		add(t, "l15", &l15Tile{h: h})
	}
	for _, t := range pl.slaves {
		add(t, "worker", &workerTile{h: h, initial: roleSlave})
	}
	for _, t := range pl.banks {
		add(t, "worker", &workerTile{h: h, initial: roleBank})
	}
}

// workerTile is the kernel of a slave/bank tile. Every worker can
// perform either function (the homogeneity requirement of §2.3);
// reconfig messages switch the role at runtime. A tile that receives a
// memory request while in the slave role (a transient during
// reconfiguration) still services it correctly — the flushed cache just
// misses.
type workerTile struct {
	h        *slotHost
	e        *engine
	initial  roleKind
	role     roleKind
	bank     *dcache.Bank
	nextBeat uint64
}

func (k *workerTile) start(c *raw.TileCtx) {
	e := k.h.cur
	P := &e.cfg.Params
	k.e, k.role = e, k.initial
	// The tile keeps its bank across the slot's guests, each starting
	// with it as new. A retired slot's workers keep theirs: a reconfig
	// can still reach a parked worker.
	if k.bank == nil {
		k.bank = dcache.NewBank(P.L2DBankBytes, P.L2DWays, P.L2DLine)
	} else {
		k.bank.Reset()
	}
	if e.recovery {
		// If this tile dies, the manager looks for dirty lines here.
		e.bankOf[c.Tile] = k.bank
	}
	k.nextBeat = c.Now() + P.HeartbeatPeriod
	if k.role == roleSlave {
		c.Send(e.pl.manager, workReq{}, wordsCtl)
	}
	k.beat(c)
}

// beat ends every dispatch under the recovery protocol: a heartbeat if
// one is due (even when saturated, the manager must not mistake a busy
// tile for a dead one) and a timeout at the next, so an idle tile beats
// too.
func (k *workerTile) beat(c *raw.TileCtx) {
	e := k.e
	if !e.recovery {
		return
	}
	P := &e.cfg.Params
	if c.Now() >= k.nextBeat {
		c.Tick(P.HeartbeatOcc)
		c.Send(e.pl.manager, heartbeat{}, wordsCtl)
		k.nextBeat = c.Now() + P.HeartbeatPeriod
	}
	c.P.SetDeadline(k.nextBeat)
}

func (k *workerTile) handle(c *raw.TileCtx, msg sim.Msg) {
	e, bank := k.e, k.bank
	P := &e.cfg.Params
	switch m := msg.Payload.(type) {
	case *work:
		e.doTranslate(c, m, msg.From)
		e.pool.works.put(m)
		if k.role == roleSlave {
			c.Send(e.pl.manager, workReq{}, wordsCtl)
		}

	case reconfig:
		// Flush on every role change (and on rebank-triggered flushes of
		// the permanent bank): the interleave or the function changed.
		t0 := c.Now()
		d := bank.Flush()
		e.stats.MorphFlushLines += uint64(d)
		c.Tick(P.MorphFixed + uint64(d)*P.MorphPerLine)
		prev := k.role
		k.role = m.Role
		e.trc().Span(c.Tile, "morph_flush", t0, c.Now(), "lines", uint64(d), "to_slave", b2u(k.role == roleSlave))
		if k.role == roleSlave && prev != roleSlave {
			c.Send(e.pl.manager, workReq{}, wordsCtl)
		}

	case *memFwd:
		t0 := c.Now()
		c.Tick(P.BankLookupOcc)
		e.stats.L2DRequests++
		e.trc().Count(tsL2DRequests, t0, 1)
		miss, wb := bank.Access(m.PAddr, m.Write)
		if miss {
			e.stats.L2DMisses++
			e.trc().Count(tsL2DMisses, t0, 1)
			c.Tick(P.DRAMLat + P.BankLineFill)
		}
		if wb {
			c.Tick(P.BankLineFill)
		}
		e.trc().Span(c.Tile, "bank", t0, c.Now(), "addr", uint64(m.PAddr), "dram", b2u(miss))
		if m.ReplyTo >= 0 {
			r := e.pool.resps.get()
			r.ID = m.ID
			c.Send(m.ReplyTo, r, wordsMemResp)
		}
		e.pool.fwds.put(m)

	case vmSwitch:
		// Fleet slot handoff: flush the data bank so the next guest
		// cannot see stale lines (charged like a morph flush), then
		// start over under the slot's next engine.
		d := bank.Flush()
		e.stats.MorphFlushLines += uint64(d)
		c.Tick(P.MorphFixed + uint64(d)*P.MorphPerLine)
		c.Send(msg.From, switchAck{}, wordsCtl)
		k.start(c)
		return
	}
	k.beat(c)
}

// doTranslate performs one translation unit on a slave tile, charging
// the modeled translation occupancy, and reports the result. A host
// that runs the same images again and again supplies a memo
// (Config.Memo), which hands back the block an earlier run translated
// from the same bytes; the occupancy and the reply size below are
// charged from the block either way, so the tile is exactly as busy.
func (e *engine) doTranslate(c *raw.TileCtx, m *work, replyTo int) {
	P := &e.cfg.Params
	t0 := c.Now()
	var res *translate.Result
	var err error
	if mo := e.cfg.Memo; mo != nil {
		res, err = mo.Translate(m.Translator, m.Image, m.Mem, m.PC)
	} else {
		res, err = m.Translator.TranslateFinal(m.Mem, m.PC)
	}
	d := e.pool.dones.get()
	*d = transDone{PC: m.PC, ID: m.ID, Depth: m.Depth, Gen: m.Gen, Translator: m.Translator}
	if err != nil {
		c.Tick(P.TransBaseOcc)
		e.trc().Span(c.Tile, "translate", t0, c.Now(), "pc", uint64(m.PC), "depth", uint64(m.Depth))
		c.Send(replyTo, d, wordsCtl)
		return
	}
	cost := uint64(res.GuestLen)*P.TransFetchOcc + uint64(res.NumGuest)*P.TransBaseOcc
	if m.Optimize {
		cost += uint64(res.NumGuest) * P.TransOptOcc
	}
	c.Tick(cost)
	e.trc().Span(c.Tile, "translate", t0, c.Now(), "pc", uint64(m.PC), "depth", uint64(m.Depth))
	d.Res = res
	c.Send(replyTo, d, len(res.Code))
}

// l15Tile runs one bank of the L1.5 code cache.
type l15Tile struct {
	h    *slotHost
	e    *engine
	bank *codecache.L15
}

// start binds the bank to the slot's current guest. The slot keeps the
// bank's tables across its guests; each starts with them empty.
func (k *l15Tile) start(*raw.TileCtx) {
	k.e = k.h.cur
	if k.bank == nil {
		k.bank = codecache.NewL15(k.e.cfg.Params.L15BankBytes)
	} else {
		k.bank.Reset()
	}
}

func (k *l15Tile) handle(c *raw.TileCtx, msg sim.Msg) {
	e, bank := k.e, k.bank
	P := &e.cfg.Params
	switch m := msg.Payload.(type) {
	case *codeReq:
		t0 := c.Now()
		c.Tick(P.L15LookupOcc)
		e.stats.L15Lookups++
		e.trc().Count(tsL15Lookups, t0, 1)
		if res, ok := bank.Lookup(m.ID); ok {
			e.stats.L15Hits++
			e.trc().Count(tsL15Hits, t0, 1)
			words := len(res.Code)
			c.Tick(uint64(words) * P.L15WordOcc)
			e.trc().Span(c.Tile, "l15_lookup", t0, c.Now(), "pc", uint64(m.PC), "hit", 1)
			r := e.pool.codeResps.get()
			*r = codeResp{PC: m.PC, ID: m.ID, Res: res}
			c.Send(m.ReplyTo, r, words)
			e.pool.codeReqs.put(m)
			return
		}
		e.trc().Span(c.Tile, "l15_lookup", t0, c.Now(), "pc", uint64(m.PC), "hit", 0)
		// Passed on, and with it the duty to free it.
		m.FillBank = c.Tile
		c.Send(e.pl.manager, m, wordsCodeReq)
	case *fill:
		t0 := c.Now()
		c.Tick(uint64(len(m.Res.Code)) * P.L15WordOcc)
		bank.Insert(m.ID, m.PC, m.Res)
		e.trc().Span(c.Tile, "l15_fill", t0, c.Now(), "pc", uint64(m.PC), "", 0)
		e.pool.fills.put(m)
	case smcInval:
		// Coarse invalidation: drop the whole bank.
		c.Tick(P.L15LookupOcc)
		bank.Flush()
		e.trc().Instant(c.Tile, "smc_flush", c.Now(), "", 0, "", 0)
		c.Send(msg.From, smcAck{}, wordsCtl)
	case vmSwitch:
		// Fleet slot handoff; the next guest gets an empty bank.
		c.Send(msg.From, switchAck{}, wordsCtl)
		k.start(c)
	}
}

// mmuTile runs the MMU/TLB tile: the first stage of the pipelined
// memory system (Figure 2). It translates guest virtual addresses and
// forwards requests to the bank that owns the physical line.
type mmuTile struct {
	h     *slotHost
	e     *engine
	m     *mmu.MMU
	banks []int
}

func (k *mmuTile) start(*raw.TileCtx) {
	e := k.h.cur
	k.e = e
	k.m = mmu.New(e.cfg.Params.TLBEntries)
	if e.restore != nil {
		if err := k.m.Import(e.restore.MMU); err != nil {
			panic(err) // impossible: TLB geometry is fixed by Params
		}
	}
	e.mmuLive = k.m
	k.banks = append(k.banks[:0], e.pl.banks...)
}

func (k *mmuTile) handle(c *raw.TileCtx, msg sim.Msg) {
	e := k.e
	P := &e.cfg.Params
	switch req := msg.Payload.(type) {
	case *memReq:
		t0 := c.Now()
		c.Tick(P.MMULookupOcc)
		paddr, miss := k.m.Translate(req.Addr)
		if miss {
			c.Tick(P.TLBMissOcc)
			e.stats.TLBMisses++
			e.trc().Count(tsTLBMisses, t0, 1)
		}
		e.trc().Span(c.Tile, "mmu", t0, c.Now(), "addr", uint64(req.Addr), "tlb_miss", b2u(miss))
		b := k.banks[dcache.BankFor(paddr, P.L2DLine, len(k.banks))]
		local := dcache.LocalAddr(paddr, P.L2DLine, len(k.banks))
		f := e.pool.fwds.get()
		*f = memFwd{PAddr: local, Write: req.Write, ReplyTo: req.ReplyTo, ID: req.ID}
		c.Send(b, f, wordsMemReq)
		e.pool.reqs.put(req)
	case rebank:
		k.banks = append(k.banks[:0], req.Banks...)
		e.trc().Instant(c.Tile, "rebank", c.Now(), "gen", req.Gen, "banks", uint64(len(k.banks)))
		if req.Gen > 0 {
			c.Send(msg.From, rebankAck{Gen: req.Gen}, wordsCtl)
		}
	case vmSwitch:
		// Fleet slot handoff; the next guest gets a fresh TLB.
		c.Send(msg.From, switchAck{}, wordsCtl)
		k.start(c)
	}
}

// sysTile runs the syscall proxy tile.
type sysTile struct {
	h *slotHost
	e *engine
}

func (k *sysTile) start(*raw.TileCtx) { k.e = k.h.cur }

func (k *sysTile) handle(c *raw.TileCtx, msg sim.Msg) {
	e := k.e
	P := &e.cfg.Params
	if _, sw := msg.Payload.(vmSwitch); sw {
		// Fleet slot handoff; the next guest gets a fresh proxy.
		c.Send(msg.From, switchAck{}, wordsCtl)
		k.start(c)
		return
	}
	req, ok := msg.Payload.(sysReq)
	if !ok {
		return
	}
	t0 := c.Now()
	c.Tick(P.SyscallOcc)
	var regs [8]uint32
	for i := 0; i < 8; i++ {
		regs[i] = req.Regs[1+i]
	}
	num := regs[0] // EAX: syscall number before the call, return value after
	e.proc.Kern.Syscall(e.proc.Mem, &regs)
	e.jadd(checkpoint.EvSyscall, uint64(c.Now()), uint64(num), uint64(regs[0]))
	e.trc().Span(c.Tile, "sys", t0, c.Now(), "num", uint64(num), "ret", uint64(regs[0]))
	var resp sysResp
	resp.Regs = req.Regs
	for i := 0; i < 8; i++ {
		resp.Regs[1+i] = regs[i]
	}
	resp.Exited = e.proc.Kern.Exited
	c.Send(msg.From, resp, wordsSys)
}
