package core

import (
	"sort"

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
// Every map walked here is iterated in sorted order so that the
// snapshot (and anything downstream of it: the journal, a replay) is
// deterministic.
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
	for d := range mgr.buckets {
		for _, pc := range mgr.buckets[d] {
			en := mgr.entry(pc)
			if en.queued && en.depth == d && !en.inflight && !en.done && !en.bad {
				s.Queues = append(s.Queues, checkpoint.QueuedPC{PC: pc, Depth: int32(d)})
			}
		}
	}
	for _, t := range sortedKeys(mgr.outstanding) {
		ow := mgr.outstanding[t]
		s.Queues = append(s.Queues, checkpoint.QueuedPC{PC: ow.pc, Depth: int32(ow.depth)})
	}

	s.Spec = sortedU32map(mgr.specStored)
	for pc, en := range mgr.entries {
		if en.bad {
			s.Bad = append(s.Bad, pc)
		}
	}
	sort.Slice(s.Bad, func(i, j int) bool { return s.Bad[i] < s.Bad[j] })

	s.SMC = checkpoint.SMCState{Gen: e.smcGen, CodePages: sortedU32map(e.codePages)}
	for _, pg := range sortedU32map(e.pageInval) {
		s.SMC.Inval = append(s.SMC.Inval, checkpoint.PageInval{Page: pg, Gen: e.pageInval[pg]})
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
// contents without snapshotting host code bytes.
func (e *engine) applyRestore(s *checkpoint.State) {
	e.proc.Mem.Restore(s.Mem)
	e.proc.CPU = s.CPU
	e.proc.Kern.RestoreState(s.Kern)
	e.stats = s.Metrics

	e.smcGen = s.SMC.Gen
	for _, pg := range s.SMC.CodePages {
		e.codePages[pg] = true
	}
	for _, pi := range s.SMC.Inval {
		e.pageInval[pi.Page] = pi.Gen
	}

	e.restoreBlocks = map[uint32]*translate.Result{}
	for _, pc := range s.L2C.PCs {
		e.retranslate(pc)
	}
	for _, pc := range s.L1.PCs {
		e.retranslate(pc)
	}
}

// retranslate rebuilds one code-cache entry from restored guest memory.
// A failure is recorded as a nil block (the entry becomes "bad",
// the same terminal state the live pipeline gives an untranslatable
// PC); it cannot happen for PCs that translated successfully before the
// snapshot, because the memory they were translated from is restored
// bit-identically.
func (e *engine) retranslate(pc uint32) {
	if _, ok := e.restoreBlocks[pc]; ok {
		return
	}
	res, err := e.tr.TranslateFinal(e.proc.Mem, pc)
	if err != nil {
		res = nil
	}
	e.restoreBlocks[pc] = res
}

// restoreManager rebuilds the manager tile's state from the engine's
// restore snapshot: the L2 code cache (re-inserted in original order so
// capacity behavior reproduces), failed-translation markers, the
// pending-work queues, and the speculative-store set.
func (e *engine) restoreManager(st *managerState) {
	s := e.restore
	for _, pc := range s.L2C.PCs {
		res := e.restoreBlocks[pc]
		en := st.entry(pc)
		if res == nil {
			en.bad = true
			continue
		}
		st.l2.Insert(pc, res)
		en.done = true
		for pg := res.GuestAddr >> 12; pg <= (res.GuestAddr+res.GuestLen-1)>>12; pg++ {
			e.codePages[pg] = true
		}
	}
	st.l2.Accesses = s.L2C.Accesses
	st.l2.Misses = s.L2C.Misses
	st.l2.Stores = s.L2C.Stores
	for _, pc := range s.Bad {
		st.entry(pc).bad = true
	}
	for _, q := range s.Queues {
		st.push(q.PC, int(q.Depth))
	}
	for _, pc := range s.Spec {
		st.specStored[pc] = true
	}
}

// restoreExecCaches rebuilds the execution tile's L1 code cache (by
// re-inserting the recorded PCs in arena order, which also reproduces
// the chain patches) and imports the data-cache tag state. Counters are
// overwritten afterwards so the re-insertion itself leaves no trace.
func (e *engine) restoreExecCaches(l1 *codecache.L1, env *execEnv) {
	s := e.restore
	for _, pc := range s.L1.PCs {
		if res := e.restoreBlocks[pc]; res != nil {
			l1.Insert(pc, res)
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

// sortedKeys returns a map's int keys in ascending order.
func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// sortedU32map returns a map's uint32 keys in ascending order.
func sortedU32map[V any](m map[uint32]V) []uint32 {
	out := make([]uint32, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
