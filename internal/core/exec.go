package core

import (
	"fmt"
	"slices"

	"tilevm/internal/cachesim"
	"tilevm/internal/codecache"
	"tilevm/internal/raw"
	"tilevm/internal/rawexec"
	"tilevm/internal/sim"
	"tilevm/internal/translate"
	"tilevm/internal/x86interp"
)

// execKernel is the runtime-execution tile: the dispatch loop, the L1
// code cache in the tile's instruction memory, the tile data cache, and
// the translated-code execution engine.
func (e *engine) execKernel(c *raw.TileCtx) {
	P := &e.cfg.Params
	e.tabs.bind(e)
	l1, ids := e.tabs.l1, e.tabs.ids
	l1.NoChain = e.cfg.NoChain
	env := &execEnv{
		e:      e,
		c:      c,
		dl1:    e.tabs.dl1,
		interp: x86interp.New(e.proc),
	}
	env.dl1.Reset() // as new: every run of the kernel starts cold
	if e.restore != nil {
		e.restoreExecCaches(l1, env)
	}
	cpu := &rawexec.CPU{}
	cpu.LoadGuest(&e.proc.CPU)
	prog := l1.Program()
	pc := e.proc.PC
	trc := e.trc()

	for {
		// A cancelled guest (slot quarantined, rollback) or one past its
		// deadline stops here: the dispatch boundary is the one point
		// where no request is in flight, so breaking here strands nothing
		// on the network.
		if e.stopping(c.Now()) {
			break
		}
		// Checkpoint at the dispatch boundary: the one point where the
		// guest has no request in flight, so a snapshot here plus the
		// service tiles' own state is the whole machine. The live
		// register file is stored back first — the dispatch loop owns it
		// between blocks, and e.proc.CPU is stale until loop exit.
		if e.checkpointDue(c.Now()) {
			cpu.StoreGuest(&e.proc.CPU)
			e.proc.PC = pc
			e.capture(c, l1, env)
		}
		e.stats.BlockDispatches++
		if e.cfg.PanicAtDispatch != 0 && e.stats.BlockDispatches == e.cfg.PanicAtDispatch {
			panic(fmt.Sprintf("injected test panic at dispatch %d (guest pc %#x)",
				e.stats.BlockDispatches, pc))
		}
		tDisp := c.Now()
		c.Tick(P.DispatchOcc + P.L1LookupOcc)
		// The block's id, interned here once for every level it is
		// looked up at (DESIGN.md §7 "Code-path storage").
		id := ids.ID(pc)
		idx, ok := l1.Lookup(id)
		l1hit := uint64(1)
		if !ok {
			l1hit = 0
			res := e.fetchBlock(c, pc, id)
			if res == nil {
				e.execErr = fmt.Errorf("guest jumped to untranslatable code at %#x", pc)
				break
			}
			var st codecache.InsertStats
			idx, st = l1.Insert(id, res)
			c.Tick(uint64(st.CopiedWords)*P.L1CopyWordOcc +
				uint64(st.Patches)*P.L1ChainPatchOcc)
		}
		trc.Count(tsDispatches, tDisp, 1)
		trc.Count(tsL1Lookups, tDisp, 1)
		trc.Count(tsL1Hits, tDisp, l1hit)
		trc.Span(c.Tile, "dispatch", tDisp, c.Now(), "pc", uint64(pc), "l1_hit", l1hit)
		tExec := c.Now()
		exit, err := prog.Exec(cpu, idx, tileClock{c}, env, 0)
		trc.Span(c.Tile, "exec", tExec, c.Now(), "pc", uint64(pc), "insts", exit.Insts)
		e.stats.HostInsts += exit.Insts
		if err != nil {
			e.execErr = fmt.Errorf("at guest block %#x: %w", pc, err)
			break
		}
		if env.exited {
			break
		}
		pc = exit.NextPC
		if exit.Interrupted {
			// A suppressed chained jump: resolve the target block's
			// guest PC before the L1 flush destroys the mapping.
			resolved, ok := l1.PCForIndex(exit.ChainIdx)
			if !ok {
				e.execErr = fmt.Errorf("unresolvable chain target %d during SMC invalidation", exit.ChainIdx)
				break
			}
			pc = resolved
		}
		if env.smcPending {
			e.smcInvalidate(c, env, l1)
		}
	}

	cpu.StoreGuest(&e.proc.CPU)
	// Pin the architectural PC to the dispatch-loop exit point:
	// otherwise proc.PC holds whatever the last assist (or checkpoint
	// capture) left there, which is timing-dependent — and the final
	// state hash must depend only on guest-architectural history.
	e.proc.PC = pc
	e.stats.L1CLookups = l1.Lookups
	e.stats.L1CHits = l1.Hits
	e.stats.L1CFlushes = l1.Flushes
	e.stats.Chains = l1.Chains
	e.stats.DL1Accesses = env.dl1.Accesses
	e.stats.DL1Misses = env.dl1.Misses
	e.stopCycles = c.Now()
	e.onExit(c)
}

// await is the execution tile's one blocking wait. Every request/reply
// leg that leaves the tile — code fetch, line fill, syscall, SMC
// invalidation, fleet hand-off — sends its request once, then calls
// await until the reply it wants arrives. Nothing is re-sent on a
// timer: the network loses only what is sent to a dead tile, and a
// stalled tile answers when its stall ends. A dead tile is the
// manager's to excise, and every excision sends the execution tile a
// wake (DESIGN.md §6): a line fill re-sends on it, and a broadcast
// stops waiting on targets the slot has lost. Callers discard payloads
// they do not match.
func await(c *raw.TileCtx) sim.Msg { return c.Recv() }

// broadcast sends req to every target in pending and waits until each
// has answered with an A. A wake drops the targets the slot has lost (a
// slave or bank excised meanwhile): they will never answer.
func broadcast[A any](c *raw.TileCtx, slot *placement, pending []int, req any) {
	for _, t := range pending {
		c.Send(t, req, wordsCtl)
	}
	for len(pending) > 0 {
		msg := await(c)
		if _, ok := msg.Payload.(A); ok {
			if i := slices.Index(pending, msg.From); i >= 0 {
				pending = slices.Delete(pending, i, i+1)
			}
		} else if _, ok := msg.Payload.(wake); ok {
			pending = slices.DeleteFunc(pending, slot.gone)
		}
	}
}

// smcInvalidate performs the self-modifying-code invalidation protocol
// (paper §5: the prototype detects writes to pages containing
// translated code): flush the local L1 code cache, tell the manager to
// drop overlapping L2 translations, flush the L1.5 banks, and wait for
// the acknowledgments. The assist interpreter's decode cache goes too:
// it sees only the interpreter's own stores, not translated code's.
func (e *engine) smcInvalidate(c *raw.TileCtx, env *execEnv, l1 *codecache.L1) {
	e.stats.SMCInvalidations++
	t0 := c.Now()
	inval := smcInval{Lo: env.smcLo, Hi: env.smcHi}
	broadcast[smcAck](c, e.slot, append([]int{e.pl.manager}, e.pl.l15...), inval)
	l1.Flush()
	env.interp = x86interp.New(e.proc)
	env.smcPending = false
	e.trc().Span(c.Tile, "smc_inval", t0, c.Now(), "lo", uint64(inval.Lo), "hi", uint64(inval.Hi))
}

// b2u converts a bool to a trace-arg scalar.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// fetchBlock requests translated block id, at guest PC pc, through the
// code cache hierarchy, blocking until it arrives.
func (e *engine) fetchBlock(c *raw.TileCtx, pc uint32, id int32) *translate.Result {
	t0 := c.Now()
	target := e.pl.manager
	if n := len(e.pl.l15); n > 0 {
		target = e.pl.l15[l15BankFor(pc, n)]
	}
	m := e.pool.codeReqs.get()
	*m = codeReq{PC: pc, ID: id, ReplyTo: e.pl.exec, FillBank: -1}
	c.Send(target, m, wordsCodeReq)
	for {
		if r, ok := await(c).Payload.(*codeResp); ok {
			res := r.Res
			e.pool.codeResps.put(r)
			e.trc().Span(c.Tile, "fetch", t0, c.Now(), "pc", uint64(pc), "", 0)
			return res
		}
	}
}

// execEnv implements rawexec.Env on the simulated machine: the tile
// data cache backed by the pipelined MMU → L2-bank memory system.
type execEnv struct {
	e      *engine
	c      *raw.TileCtx
	dl1    *cachesim.Cache
	interp *x86interp.Interp
	memID  uint64
	exited bool

	// Self-modifying-code detection: a store into a translated code
	// page sets smcPending and accumulates the dirty byte range; the
	// dispatch loop performs the invalidation protocol at the next
	// block boundary.
	smcPending bool
	smcLo      uint32
	smcHi      uint32
}

// checkSMC detects stores into translated code pages.
func (v *execEnv) checkSMC(addr uint32, size uint8) {
	for pg := addr >> 12; pg <= (addr+uint32(size)-1)>>12; pg++ {
		if v.e.tabs.codePages.get(pg) {
			if !v.smcPending {
				v.smcPending = true
				v.smcLo, v.smcHi = addr, addr+uint32(size)
			} else {
				if addr < v.smcLo {
					v.smcLo = addr
				}
				if addr+uint32(size) > v.smcHi {
					v.smcHi = addr + uint32(size)
				}
			}
			return
		}
	}
}

// touch charges a guest data access: tile D-cache hit or a round trip
// through the MMU and bank tiles. It returns true on a D-cache hit.
func (v *execEnv) touch(addr uint32, write bool) bool {
	P := &v.e.cfg.Params
	if write {
		v.c.Tick(P.GuestStoreOcc)
	} else {
		v.c.Tick(P.GuestL1HitOcc)
	}
	res := v.dl1.Access(addr, write)
	v.e.trc().Count(tsDL1Accesses, v.c.Now(), 1)
	if res.Hit {
		return true
	}
	v.e.trc().Count(tsDL1Misses, v.c.Now(), 1)
	tMiss := v.c.Now()
	if res.Writeback {
		// Posted writeback of the dirty victim; no reply needed.
		wb := v.e.pool.reqs.get()
		*wb = memReq{Addr: res.WritebackOf, Write: true, ReplyTo: -1}
		v.c.Send(v.e.pl.mmu, wb, wordsMemReq+8)
	}
	// Line fill round trip. Its reply carries the fill's ID, so a
	// late reply to an earlier fill is discarded. A wake means a tile was
	// excised and the MMU perhaps re-pointed past the bank this fill
	// went to, so the fill is sent again; either copy's reply will do.
	v.memID++
	fill := func() {
		rq := v.e.pool.reqs.get()
		*rq = memReq{Addr: res.LineAddr, Write: false, ReplyTo: v.e.pl.exec, ID: v.memID}
		v.c.Send(v.e.pl.mmu, rq, wordsMemReq)
	}
	fill()
	for {
		switch m := await(v.c).Payload.(type) {
		case wake:
			fill()
		case *memResp:
			match := m.ID == v.memID
			v.e.pool.resps.put(m)
			if match {
				v.e.trc().Span(v.c.Tile, "memfill", tMiss, v.c.Now(), "addr", uint64(res.LineAddr), "", 0)
				return false
			}
		}
	}
}

// GuestLoad implements rawexec.Env.
func (v *execEnv) GuestLoad(addr uint32, size uint8, signed bool) (uint32, uint64) {
	hit := v.touch(addr, false)
	val := v.e.proc.Mem.ReadN(addr, size)
	if signed && size != 4 {
		shift := 32 - uint(size)*8
		val = uint32(int32(val<<shift) >> shift)
	}
	ready := v.c.Now()
	if hit {
		// Latency 6 vs occupancy 4 (Figure 11): the value arrives two
		// cycles after the issue slot frees.
		ready += v.e.cfg.Params.GuestL1HitLat - v.e.cfg.Params.GuestL1HitOcc
	}
	return val, ready
}

// GuestStore implements rawexec.Env.
func (v *execEnv) GuestStore(addr uint32, val uint32, size uint8) {
	v.touch(addr, true)
	v.e.proc.Mem.WriteN(addr, val, size)
	v.checkSMC(addr, size)
}

// Syscall implements rawexec.Env: proxy to the syscall tile.
func (v *execEnv) Syscall(cpu *rawexec.CPU) {
	v.e.stats.Syscalls++
	tSys := v.c.Now()
	var req sysReq
	copy(req.Regs[:], cpu.R[:10])
	v.c.Send(v.e.pl.sys, req, wordsSys)
	for {
		if r, ok := await(v.c).Payload.(sysResp); ok {
			copy(cpu.R[1:10], r.Regs[1:10])
			v.exited = r.Exited
			v.e.trc().Span(v.c.Tile, "syscall", tSys, v.c.Now(), "exited", b2u(r.Exited), "", 0)
			return
		}
	}
}

// Assist implements rawexec.Env: interpreter fallback on the execution
// tile, with the instruction's memory traffic routed through the
// normal guest-memory path so the cache and bank state stay truthful.
func (v *execEnv) Assist(guestPC uint32, cpu *rawexec.CPU) error {
	v.e.stats.Assists++
	v.e.trc().Instant(v.c.Tile, "assist", v.c.Now(), "pc", uint64(guestPC), "", 0)
	v.c.Tick(v.e.cfg.Params.AssistOcc)
	cpu.StoreGuest(&v.e.proc.CPU)
	v.e.proc.PC = guestPC
	v.interp.OnMem = func(addr uint32, size uint8, write bool) {
		v.touch(addr, write)
		if write {
			v.checkSMC(addr, size)
		}
	}
	err := v.interp.Step()
	v.interp.OnMem = nil
	if err != nil {
		return err
	}
	cpu.LoadGuest(&v.e.proc.CPU)
	return nil
}

// Stopped implements rawexec.Env.
func (v *execEnv) Stopped() bool { return v.exited }

// Interrupted implements rawexec.Env: an SMC invalidation is pending,
// the guest is cancelled or past its deadline, or a checkpoint is due.
// The last two are taken only at the dispatch loop, so a loop of blocks
// chained in the L1, which never returns there, would otherwise run on
// to its end.
func (v *execEnv) Interrupted(now uint64) bool {
	return v.smcPending || v.e.stopping(now) || v.e.checkpointDue(now)
}

// stopping reports whether the exec kernel is to leave the guest at
// cycle now: it is cancelled (a rollback sets cancelled too), or its
// deadline has passed.
func (e *engine) stopping(now uint64) bool {
	return e.cancelled || e.deadline > 0 && now > e.deadline
}

// checkpointDue reports whether the dispatch loop is to capture a
// checkpoint at cycle now: one is due, and the service tiles it
// snapshots are up.
func (e *engine) checkpointDue(now uint64) bool {
	return e.ck.Due(now) && e.mgr != nil && e.mmuLive != nil
}

var _ rawexec.Env = (*execEnv)(nil)
