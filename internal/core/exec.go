package core

import (
	"fmt"

	"tilevm/internal/cachesim"
	"tilevm/internal/codecache"
	"tilevm/internal/raw"
	"tilevm/internal/rawexec"
	"tilevm/internal/translate"
	"tilevm/internal/x86interp"
)

// execKernel is the runtime-execution tile: the dispatch loop, the L1
// code cache in the tile's instruction memory, the tile data cache, and
// the translated-code execution engine.
func (e *engine) execKernel(c *raw.TileCtx) {
	P := &e.cfg.Params
	l1 := codecache.NewL1(P.IMemBytes)
	l1.NoChain = e.cfg.NoChain
	env := &execEnv{
		e:      e,
		c:      c,
		dl1:    cachesim.New(P.DCacheBytes, P.DCacheWays, P.DCacheLine),
		interp: x86interp.New(e.proc),
	}
	if e.restore != nil {
		e.restoreExecCaches(l1, env)
	}
	cpu := &rawexec.CPU{}
	cpu.LoadGuest(&e.proc.CPU)
	prog := l1.Program()
	pc := e.proc.PC
	logLimit := e.cfg.DispatchLogLimit
	if logLimit == 0 {
		logLimit = 1000
	}
	logged := 0
	trc := e.trc()
	lastPromoGen := e.promoGen

	for {
		// A fleet supervisor cancels a guest (deadline exceeded, slot
		// quarantined) by setting cancelled; the dispatch boundary is the
		// one point where no request is in flight, so breaking here
		// strands nothing on the network.
		if e.cancelled {
			break
		}
		// A settled promotion invalidates the L1 arena wholesale:
		// chaining precludes removing one entry, and the stale tier-0
		// code may be reached through patched jumps. Hot blocks refetch
		// their promoted copies on the next dispatch. Checked before
		// capture so a snapshot never records an arena the promoted L2
		// contents cannot regenerate.
		if e.promoGen != lastPromoGen {
			lastPromoGen = e.promoGen
			l1.Flush()
		}
		// Checkpoint at the dispatch boundary: the one point where the
		// guest has no request in flight, so a snapshot here plus the
		// service tiles' own state is the whole machine. The live
		// register file is stored back first — the dispatch loop owns it
		// between blocks, and e.proc.CPU is stale until loop exit.
		if e.ck.Due(c.Now()) && e.mgr != nil && e.mmuLive != nil {
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
		source := "L1"
		idx, ok := l1.Lookup(pc)
		l1hit := uint64(1)
		if !ok {
			l1hit = 0
			source = "L1.5/L2"
			res := e.fetchBlock(c, pc)
			if res == nil {
				e.execErr = fmt.Errorf("guest jumped to untranslatable code at %#x", pc)
				break
			}
			if e.cfg.Tier0 {
				if res.Tier == translate.TierTemplate {
					e.tier0Blk[pc] = true
				} else {
					delete(e.tier0Blk, pc)
				}
			}
			var st codecache.InsertStats
			idx, st = l1.Insert(pc, res)
			c.Tick(uint64(st.CopiedWords)*P.L1CopyWordOcc +
				uint64(st.Patches)*P.L1ChainPatchOcc)
		}
		trc.Count(tsDispatches, tDisp, 1)
		trc.Count(tsL1Lookups, tDisp, 1)
		trc.Count(tsL1Hits, tDisp, l1hit)
		trc.Span(c.Tile, "dispatch", tDisp, c.Now(), "pc", uint64(pc), "l1_hit", l1hit)
		if e.cfg.DispatchLog != nil && logged < logLimit {
			fmt.Fprintf(e.cfg.DispatchLog, "%12d dispatch pc=%08x from=%s\n", c.Now(), pc, source)
			logged++
			if logged == logLimit {
				fmt.Fprintf(e.cfg.DispatchLog, "... dispatch log limit reached\n")
			}
		}
		tExec := c.Now()
		exit, err := prog.Exec(cpu, idx, tileClock{c}, env, 0)
		trc.Span(c.Tile, "exec", tExec, c.Now(), "pc", uint64(pc), "insts", exit.Insts)
		e.stats.HostInsts += exit.Insts
		if e.cfg.WarmupInsts > 0 && e.stats.WarmupCycles == 0 && e.stats.HostInsts >= e.cfg.WarmupInsts {
			e.stats.WarmupCycles = c.Now()
			trc.Instant(c.Tile, "warmup", c.Now(), "insts", e.stats.HostInsts, "", 0)
		}
		if e.cfg.Tier0 {
			e.noteHot(c, pc, exit.Insts)
		}
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
		if e.cfg.MaxBlockExecs != 0 && e.stats.BlockDispatches >= e.cfg.MaxBlockExecs {
			e.execErr = fmt.Errorf("block-dispatch budget exhausted at %#x", pc)
			break
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
	if e.onExit != nil {
		e.onExit(c)
	} else {
		c.Stop()
	}
}

// noteHot accumulates retired-instruction hotness against the entry PC
// of the dispatched block (chained successors execute under the entry's
// account — the whole chain is flushed as a unit when a promotion
// settles) and fires a promotion request once a tier-0 block crosses
// the tier-up threshold. The request is fire-and-forget: the manager's
// guards make duplicates and stale requests harmless.
func (e *engine) noteHot(c *raw.TileCtx, pc uint32, insts uint64) {
	e.hot[pc] += insts
	if e.promoSent[pc] || !e.tier0Blk[pc] || e.hot[pc] < e.tierUpThreshold() {
		return
	}
	e.promoSent[pc] = true
	e.trc().Instant(c.Tile, "tier_up", c.Now(), "pc", uint64(pc), "insts", e.hot[pc])
	c.Send(e.pl.manager, promoteReq{PC: pc}, wordsCtl)
}

// rpc is the execution tile's robust request/reply primitive (used
// only in fault-recovery mode): send issues (or re-issues) the
// request, match inspects each incoming payload and returns the reply
// value when it is the one being waited for. On watchdog expiry the
// request is re-sent with exponential backoff, capped at
// RetryBackoffMax — the execution tile cannot make progress without
// the reply, so it retries forever; a lost service tile is the
// manager's problem to excise, after which a retry lands on a live
// one. Unmatched payloads (stale replies to earlier attempts,
// corrupted messages) are discarded.
func (e *engine) rpc(c *raw.TileCtx, send func(attempt int), match func(any) (any, bool)) any {
	P := &e.cfg.Params
	send(0)
	backoff := P.NetWatchdog
	deadline := c.Now() + backoff
	for attempt := 1; ; {
		msg, ok := c.RecvDeadline(deadline)
		if !ok {
			e.stats.Timeouts++
			e.stats.Retries++
			send(attempt)
			attempt++
			if backoff < P.RetryBackoffMax {
				backoff *= 2
				if backoff > P.RetryBackoffMax {
					backoff = P.RetryBackoffMax
				}
			}
			deadline = c.Now() + backoff
			continue
		}
		if cm, ok := msg.Payload.(raw.Corrupted); ok {
			// The wrapper's single consumption point on this tile: only
			// now is the pooled payload unaliased and safe to recycle.
			e.recycleFaulty(cm.Payload)
			continue
		}
		if v, done := match(msg.Payload); done {
			return v
		}
	}
}

// smcInvalidate performs the self-modifying-code invalidation protocol
// (paper §5: the prototype detects writes to pages containing
// translated code): flush the local L1 code cache, tell the manager to
// drop overlapping L2 translations, flush the L1.5 banks, and wait for
// the acknowledgments.
func (e *engine) smcInvalidate(c *raw.TileCtx, env *execEnv, l1 *codecache.L1) {
	e.stats.SMCInvalidations++
	t0 := c.Now()
	inval := smcInval{Lo: env.smcLo, Hi: env.smcHi}
	if e.robust {
		e.smcInvalRobust(c, inval)
	} else {
		targets := 1 + len(e.pl.l15)
		c.Send(e.pl.manager, inval, wordsCtl)
		for _, bankTile := range e.pl.l15 {
			c.Send(bankTile, inval, wordsCtl)
		}
		for acks := 0; acks < targets; {
			msg := c.Recv()
			if _, ok := msg.Payload.(smcAck); ok {
				acks++
			}
		}
	}
	l1.Flush()
	env.smcPending = false
	if e.cfg.Tier0 {
		// Coarse but rare: the overwritten blocks' identities are gone
		// from the manager's registry too, so hotness restarts from
		// zero. A duplicate promotion request after the reset is
		// rejected by the manager's tier guard.
		e.initTierState()
	}
	e.trc().Span(c.Tile, "smc_inval", t0, c.Now(), "lo", uint64(inval.Lo), "hi", uint64(inval.Hi))
}

// b2u converts a bool to a trace-arg scalar.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// smcInvalRobust runs the invalidation handshake with per-target ack
// tracking and selective resend on watchdog expiry. Re-invalidating a
// range is idempotent at every receiver (the manager conservatively
// bumps the SMC generation again; an L1.5 bank re-flushes an already
// empty bank), so a duplicated inval caused by a delayed ack is
// harmless.
func (e *engine) smcInvalRobust(c *raw.TileCtx, inval smcInval) {
	P := &e.cfg.Params
	targets := append([]int{e.pl.manager}, e.pl.l15...)
	acked := map[int]bool{}
	send := func() {
		for _, t := range targets {
			if !acked[t] {
				c.Send(t, inval, wordsCtl)
			}
		}
	}
	send()
	backoff := P.NetWatchdog
	deadline := c.Now() + backoff
	for len(acked) < len(targets) {
		msg, ok := c.RecvDeadline(deadline)
		if !ok {
			e.stats.Timeouts++
			e.stats.Retries++
			send()
			if backoff < P.RetryBackoffMax {
				backoff *= 2
				if backoff > P.RetryBackoffMax {
					backoff = P.RetryBackoffMax
				}
			}
			deadline = c.Now() + backoff
			continue
		}
		if _, isAck := msg.Payload.(smcAck); isAck {
			acked[msg.From] = true
		}
	}
}

// fetchBlock requests a translated block through the code cache
// hierarchy, blocking until it arrives. In fault-recovery mode the
// wait is watchdogged and the request re-sent under a fresh sequence
// number; a stale response for a different PC (possible only after a
// retry) is discarded rather than treated as a protocol violation.
func (e *engine) fetchBlock(c *raw.TileCtx, pc uint32) *translate.Result {
	t0 := c.Now()
	target := e.pl.manager
	if n := len(e.pl.l15); n > 0 {
		target = e.pl.l15[l15BankFor(pc, n)]
	}
	if e.promoFresh[pc] {
		// Just promoted: fetch from the manager directly so an L1.5
		// bank whose flush is still in flight cannot serve the stale
		// tier-0 copy.
		target = e.pl.manager
		delete(e.promoFresh, pc)
	}
	if e.robust {
		out := e.rpc(c, func(int) {
			e.codeSeq++
			c.Send(target, codeReq{PC: pc, ReplyTo: e.pl.exec, FillBank: -1, Seq: e.codeSeq}, wordsCodeReq)
		}, func(payload any) (any, bool) {
			if r, ok := payload.(codeResp); ok && r.PC == pc {
				return r.Res, true
			}
			return nil, false
		})
		e.trc().Span(c.Tile, "fetch", t0, c.Now(), "pc", uint64(pc), "", 0)
		return out.(*translate.Result)
	}
	c.Send(target, codeReq{PC: pc, ReplyTo: e.pl.exec, FillBank: -1}, wordsCodeReq)
	for {
		msg := c.Recv()
		if r, ok := msg.Payload.(codeResp); ok {
			if r.PC != pc {
				e.execErr = fmt.Errorf("code response for %#x while waiting for %#x", r.PC, pc)
				return nil
			}
			e.trc().Span(c.Tile, "fetch", t0, c.Now(), "pc", uint64(pc), "", 0)
			return r.Res
		}
		// No other message types target a waiting execution tile.
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
	sysID  uint64
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
		if v.e.codePages[pg] {
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
		wb := v.e.pool.newReq()
		*wb = memReq{Addr: res.WritebackOf, Write: true, ReplyTo: -1}
		v.c.Send(v.e.pl.mmu, wb, wordsMemReq+8)
	}
	// Line fill round trip. Reads are idempotent, so in robust mode a
	// retry carries a fresh ID and any late reply to an earlier attempt
	// is discarded by the ID match.
	v.memID++
	id := v.memID
	if v.e.robust {
		v.e.rpc(v.c, func(attempt int) {
			if attempt > 0 {
				v.memID++
				id = v.memID
			}
			rq := v.e.pool.newReq()
			*rq = memReq{Addr: res.LineAddr, Write: false, ReplyTo: v.e.pl.exec, ID: id}
			v.c.Send(v.e.pl.mmu, rq, wordsMemReq)
		}, func(payload any) (any, bool) {
			r, ok := payload.(*memResp)
			if !ok {
				return nil, false
			}
			// Consumed whether it matches or not: a stale reply to a
			// superseded attempt dies here.
			match := r.ID == id
			v.e.pool.freeResp(r)
			return nil, match
		})
		v.e.trc().Span(v.c.Tile, "memfill", tMiss, v.c.Now(), "addr", uint64(res.LineAddr), "", 0)
		return false
	}
	rq := v.e.pool.newReq()
	*rq = memReq{Addr: res.LineAddr, Write: false, ReplyTo: v.e.pl.exec, ID: id}
	v.c.Send(v.e.pl.mmu, rq, wordsMemReq)
	for {
		msg := v.c.Recv()
		if cm, ok := msg.Payload.(raw.Corrupted); ok {
			v.e.recycleFaulty(cm.Payload)
			continue
		}
		if r, ok := msg.Payload.(*memResp); ok && r.ID == id {
			v.e.pool.freeResp(r)
			v.e.trc().Span(v.c.Tile, "memfill", tMiss, v.c.Now(), "addr", uint64(res.LineAddr), "", 0)
			return false
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

// Syscall implements rawexec.Env: proxy to the syscall tile. Syscalls
// are not idempotent, so the robust path is an at-most-once RPC: every
// attempt carries the same ID and the syscall tile deduplicates,
// replaying the cached response when a retry races a slow original.
func (v *execEnv) Syscall(cpu *rawexec.CPU) {
	v.e.stats.Syscalls++
	tSys := v.c.Now()
	var req sysReq
	copy(req.Regs[:], cpu.R[:10])
	if v.e.robust {
		v.sysID++
		req.ID = v.sysID
		out := v.e.rpc(v.c, func(int) {
			v.c.Send(v.e.pl.sys, req, wordsSys)
		}, func(payload any) (any, bool) {
			if r, ok := payload.(sysResp); ok && r.ID == req.ID {
				return r, true
			}
			return nil, false
		})
		r := out.(sysResp)
		copy(cpu.R[1:10], r.Regs[1:10])
		v.exited = r.Exited
		v.e.trc().Span(v.c.Tile, "syscall", tSys, v.c.Now(), "exited", b2u(r.Exited), "", 0)
		return
	}
	v.c.Send(v.e.pl.sys, req, wordsSys)
	for {
		msg := v.c.Recv()
		if r, ok := msg.Payload.(sysResp); ok {
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

// Interrupted implements rawexec.Env.
func (v *execEnv) Interrupted() bool { return v.smcPending }

var _ rawexec.Env = (*execEnv)(nil)
