package core

import (
	"cmp"
	"slices"

	"tilevm/internal/checkpoint"
	"tilevm/internal/codecache"
	"tilevm/internal/raw"
	"tilevm/internal/translate"
)

// capture assembles a whole-machine snapshot. It runs on the execution
// tile at a dispatch boundary — the one point in the protocol where the
// guest has no memory request outstanding — and charges no virtual
// cycles: checkpointing must not distort cycle accounting, so the
// modeled cost is charged at restore time instead. The caller has
// already stored the live register file and PC into e.proc.CPU.
//
// Every PC list is recorded in a fixed order — sorted, or the queue or
// cache order it reproduces — so that the snapshot (and anything
// downstream of it: the journal, a replay) is deterministic and
// independent of the order in which blocks were given their ids.
func (e *engine) capture(c *raw.TileCtx, l1 *codecache.L1, env *execEnv) {
	mgr := e.mgr
	s := &checkpoint.State{
		CPU:  e.proc.CPU,
		Kern: e.proc.Kern.Export(),
		MMU:  e.mmuLive.Export(),
		DL1:  env.dl1.Export(),
		L1: checkpoint.CodeL1State{
			PCs:     l1.EntryPCs(),
			Lookups: l1.Lookups,
			Hits:    l1.Hits,
			Flushes: l1.Flushes,
			Chains:  l1.Chains,
		},
		L2C: checkpoint.CodeL2State{
			PCs:      mgr.l2.OrderedPCs(),
			Accesses: mgr.l2.Accesses,
			Misses:   mgr.l2.Misses,
			Stores:   mgr.l2.Stores,
		},
	}

	// Pending translations: the live priority buckets, then work that is
	// in flight to a slave (the restored machine has fresh slaves, so
	// in-flight work must re-queue at its original depth).
	ids := e.tabs.ids
	for d := range mgr.buckets {
		for _, id := range mgr.buckets[d].live() {
			en := mgr.entry(id)
			if en.queued && int(en.depth) == d && !en.inflight && !en.done && !en.bad {
				s.Queues = append(s.Queues, checkpoint.QueuedPC{PC: ids.PC(id), Depth: int32(d)})
			}
		}
	}
	for _, ow := range mgr.outstanding { // by tile, ascending
		if ow.busy {
			s.Queues = append(s.Queues, checkpoint.QueuedPC{PC: ow.pc, Depth: int32(ow.depth)})
		}
	}

	for id := range int32(ids.Len()) {
		en := mgr.entry(id)
		if en.spec {
			s.Spec = append(s.Spec, ids.PC(id))
		}
		if en.bad {
			s.Bad = append(s.Bad, ids.PC(id))
		}
	}
	slices.Sort(s.Spec)
	slices.Sort(s.Bad)

	s.SMC = checkpoint.SMCState{Gen: e.smcGen, CodePages: e.tabs.codePages.pages()}
	for _, pg := range e.tabs.pageInval.pages() {
		s.SMC.Inval = append(s.SMC.Inval, checkpoint.PageInval{Page: pg, Gen: e.tabs.pageInval.get(pg)})
	}

	e.stats.Checkpoints++
	s.Metrics = e.stats
	e.ck.Capture(s, e.proc.Mem, c.Now())
	e.jadd(checkpoint.EvCheckpoint, c.Now(), s.Seq, uint64(len(s.Mem.Pages)))
	e.trc().Instant(c.Tile, "checkpoint", c.Now(), "seq", s.Seq, "pages", uint64(len(s.Mem.Pages)))
}

// applyRestore seeds a fresh engine from a snapshot, before any tile
// kernel runs: the guest-visible machine directly, and the code caches
// generatively — translation is a pure function of the (restored) guest
// memory, so re-translating each recorded PC reproduces the cache
// contents without snapshotting host code bytes. The slot's tables
// still serve the previous admission here; its manager seeds them
// (restoreManager).
func (e *engine) applyRestore(s *checkpoint.State) {
	e.proc.Mem.Restore(s.Mem)
	e.proc.CPU = s.CPU
	e.proc.Kern.RestoreState(s.Kern)
	e.stats = s.Metrics
	e.smcGen = s.SMC.Gen

	// The L2's PCs are distinct, and so are the L1's; a PC in both is
	// translated once, in the order the L2 then the L1 record them.
	e.restoreBlocks = e.restoreBlocks[:0]
	for _, pc := range s.L2C.PCs {
		e.restoreBlocks = append(e.restoreBlocks, e.retranslate(pc))
	}
	slices.SortFunc(e.restoreBlocks, byPC)
	n := len(e.restoreBlocks)
	for _, pc := range s.L1.PCs {
		if _, ok := slices.BinarySearchFunc(e.restoreBlocks[:n], restoredBlock{pc: pc}, byPC); !ok {
			e.restoreBlocks = append(e.restoreBlocks, e.retranslate(pc))
		}
	}
	slices.SortFunc(e.restoreBlocks, byPC)
}

// restoredBlock is one re-translated code-cache entry.
type restoredBlock struct {
	pc  uint32
	res *translate.Result
}

func byPC(a, b restoredBlock) int { return cmp.Compare(a.pc, b.pc) }

// retranslate rebuilds one code-cache entry from restored guest memory.
// A failure is recorded as a nil block (the entry becomes "bad",
// the same terminal state the live pipeline gives an untranslatable
// PC); it cannot happen for PCs that translated successfully before the
// snapshot, because the memory they were translated from is restored
// bit-identically.
func (e *engine) retranslate(pc uint32) restoredBlock {
	res, err := e.tr.TranslateFinal(e.proc.Mem, pc)
	if err != nil {
		res = nil
	}
	return restoredBlock{pc, res}
}

// restored returns the re-translated block at pc.
func (e *engine) restored(pc uint32) *translate.Result {
	i, _ := slices.BinarySearchFunc(e.restoreBlocks, restoredBlock{pc: pc}, byPC)
	return e.restoreBlocks[i].res
}

// restoreManager rebuilds the manager tile's state from the engine's
// restore snapshot: the self-modifying-code page registry, the L2 code
// cache (re-inserted in original order so capacity behavior
// reproduces), failed-translation markers, the pending-work queues, and
// the speculative-store set.
func (e *engine) restoreManager(st *managerState) {
	s := e.restore
	ids := e.tabs.ids
	for _, pg := range s.SMC.CodePages {
		e.tabs.codePages.set(pg, true)
	}
	for _, pi := range s.SMC.Inval {
		e.tabs.pageInval.set(pi.Page, pi.Gen)
	}
	for _, pc := range s.L2C.PCs {
		res := e.restored(pc)
		id := ids.ID(pc)
		en := st.entry(id)
		if res == nil {
			en.bad = true
			continue
		}
		st.l2.Insert(id, pc, res)
		en.done = true
		e.markCode(res)
	}
	st.l2.Accesses = s.L2C.Accesses
	st.l2.Misses = s.L2C.Misses
	st.l2.Stores = s.L2C.Stores
	for _, pc := range s.Bad {
		st.entry(ids.ID(pc)).bad = true
	}
	for _, q := range s.Queues {
		st.pushPC(q.PC, int(q.Depth))
	}
	for _, pc := range s.Spec {
		st.setSpec(st.entry(ids.ID(pc)), true)
	}
}

// markCode registers the pages a translated block was read from, whose
// stores the exec tile must then check for self-modifying code.
func (e *engine) markCode(res *translate.Result) {
	for pg := res.GuestAddr >> 12; pg <= (res.GuestAddr+res.GuestLen-1)>>12; pg++ {
		e.tabs.codePages.set(pg, true)
	}
}

// restoreExecCaches rebuilds the execution tile's L1 code cache (by
// re-inserting the recorded PCs in arena order, which also reproduces
// the chain patches) and imports the data-cache tag state. Counters are
// overwritten afterwards so the re-insertion itself leaves no trace.
func (e *engine) restoreExecCaches(l1 *codecache.L1, env *execEnv) {
	s := e.restore
	for _, pc := range s.L1.PCs {
		if res := e.restored(pc); res != nil {
			l1.Insert(e.tabs.ids.ID(pc), res)
		}
	}
	l1.Lookups = s.L1.Lookups
	l1.Hits = s.L1.Hits
	l1.Flushes = s.L1.Flushes
	l1.Chains = s.L1.Chains
	if err := env.dl1.Import(s.DL1); err != nil {
		panic(err) // impossible: cache geometry is fixed by Params
	}
}
