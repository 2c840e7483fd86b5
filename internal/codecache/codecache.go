// Package codecache implements the three-level code cache hierarchy of
// the translation system (paper §3.2, Figure 3):
//
//   - L1: the execution tile's 32KB software-managed instruction
//     memory. Blocks are copied in with a tight-packing allocator that
//     flushes wholesale when full; direct branches are chained (CHAIN
//     sites patched to jumps) only at this level, because only here is
//     a block's absolute position known.
//   - L1.5: one or two banked tiles holding translated blocks close to
//     the execution tile (64KB per bank), FIFO-evicted.
//   - L2: the manager tile's map over a 105MB code store in off-chip
//     DRAM.
//
// Every level is indexed by a block's dense id (IDs), not by its guest
// PC: a residency table is a slice, and a lookup is an index. These are
// pure data structures plus accounting; the tile kernels in
// internal/core charge the modeled cycle costs.
package codecache

import (
	"slices"

	"tilevm/internal/rawexec"
	"tilevm/internal/rawisa"
	"tilevm/internal/translate"
)

// IDs interns guest block PCs as dense ids, 0, 1, 2, … in order of
// first request, so every table of the hierarchy is a slice indexed by
// id and sized by the blocks a run touches. It is an open-addressing
// table with linear probing, kept at most half full.
type IDs struct {
	slots []idSlot
	pcs   []uint32 // by id
	shift uint     // 32 - log2(len(slots))
}

// idSlot is one table slot: id+1 of the PC it holds, 0 when empty.
type idSlot struct {
	pc  uint32
	id1 int32
}

// NewIDs returns an empty intern table.
func NewIDs() *IDs {
	t := &IDs{}
	t.rehash(64)
	return t
}

func (t *IDs) rehash(n int) {
	t.slots = make([]idSlot, n)
	t.shift = 32
	for ; n > 1; n >>= 1 {
		t.shift--
	}
	for id, pc := range t.pcs {
		i := t.home(pc)
		for t.slots[i].id1 != 0 {
			i = (i + 1) & (len(t.slots) - 1)
		}
		t.slots[i] = idSlot{pc, int32(id) + 1}
	}
}

// home is pc's first probe: Fibonacci hashing keeps the top bits.
func (t *IDs) home(pc uint32) int { return int((pc * 0x9E3779B1) >> t.shift) }

// ID returns pc's id, assigning the next one at its first request.
func (t *IDs) ID(pc uint32) int32 {
	mask := len(t.slots) - 1
	i := t.home(pc)
	for ; t.slots[i].id1 != 0; i = (i + 1) & mask {
		if t.slots[i].pc == pc {
			return t.slots[i].id1 - 1
		}
	}
	id := int32(len(t.pcs))
	t.pcs = extend(t.pcs, len(t.pcs)+1)
	t.pcs[id] = pc
	if 2*len(t.pcs) > len(t.slots) {
		t.rehash(2 * len(t.slots))
	} else {
		t.slots[i] = idSlot{pc, id + 1}
	}
	return id
}

// PC returns the guest PC of id.
func (t *IDs) PC(id int32) uint32 { return t.pcs[id] }

// Len returns the number of ids assigned.
func (t *IDs) Len() int { return len(t.pcs) }

// Reset forgets every id and keeps the storage.
func (t *IDs) Reset() {
	clear(t.slots)
	t.pcs = t.pcs[:0]
}

// extend returns s at length n, at least; new elements are zero. The
// capacity doubles, where append's grows by a quarter past a few hundred
// elements: a table that grows one block at a time then allocates
// twice its final size in all, not five times.
func extend[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	if n <= cap(s) {
		t := s[:n]
		clear(t[len(s):])
		return t
	}
	t := make([]T, n, max(n, 2*cap(s), 64))
	copy(t, s)
	return t
}

// growTo extends s to length n, the new elements -1.
func growTo(s []int32, n int) []int32 {
	old := len(s)
	if n <= old {
		return s
	}
	s = extend(s, n)
	for i := old; i < n; i++ {
		s[i] = -1
	}
	return s
}

// L1 is the execution tile's code cache: the instruction memory, held
// as the program the execution engine runs, with an entry table from
// block id to program index. Indices count words.
type L1 struct {
	capacity int
	ids      *IDs
	prog     rawexec.Program
	bytes    int
	// entry holds each block's program index, -1 when not resident;
	// resident lists the resident ids in program (insertion) order, so
	// a flush clears only what it holds.
	entry    []int32
	resident []int32
	// pending and links chain the unpatched CHAIN sites waiting for a
	// target to become resident: pending holds, per target id, the index
	// in links of the last site waiting on it (-1 for none), and each
	// link the index of the one that waited before it (-1 ends the
	// list); waiting lists the targets with a chain, for the flush.
	// links holds one entry per CHAIN site filled since the last flush,
	// not one per word, and keeps its storage across a flush.
	pending []int32
	waiting []int32
	links   []chainLink

	Lookups uint64
	Hits    uint64
	Flushes uint64
	Chains  uint64

	// NoChain leaves CHAIN sites unpatched (ablation).
	NoChain bool
}

// chainLink is an unpatched CHAIN site and the link before it.
type chainLink struct{ site, prev int32 }

// NewL1 builds an L1 code cache with the given byte capacity, whose
// blocks and CHAIN-site targets take their ids from ids.
func NewL1(capacityBytes int, ids *IDs) *L1 {
	return &L1{capacity: capacityBytes, ids: ids}
}

// reset empties the cache in time proportional to what it holds.
func (l *L1) reset() {
	l.prog.Reset()
	l.bytes = 0
	for _, id := range l.resident {
		l.entry[id] = -1
	}
	l.resident = l.resident[:0]
	for _, id := range l.waiting {
		l.pending[id] = -1
	}
	l.waiting = l.waiting[:0]
	l.links = l.links[:0]
}

// Reset empties the cache and zeroes its counters for a new guest,
// keeping its storage. The ids it reads must be reset with it.
func (l *L1) Reset() {
	l.reset()
	l.Lookups, l.Hits, l.Flushes, l.Chains = 0, 0, 0, 0
}

// Program exposes the instruction memory to the execution engine. It
// is the same Program for the life of the cache; indices from Lookup
// and Insert are valid in it until the next flush.
func (l *L1) Program() *rawexec.Program { return &l.prog }

// Bytes returns the occupied size.
func (l *L1) Bytes() int { return l.bytes }

// Lookup finds the program index of block id.
func (l *L1) Lookup(id int32) (int, bool) {
	l.Lookups++
	if int(id) < len(l.entry) && l.entry[id] >= 0 {
		l.Hits++
		return int(l.entry[id]), true
	}
	return 0, false
}

// InsertStats reports the work done by an insert, for cycle charging.
type InsertStats struct {
	CopiedWords int
	Patches     int
	Flushed     bool
}

// Insert copies translated block id into the instruction memory
// (flushing first if it does not fit), records its entry, and performs
// chaining in both directions: the new block's CHAIN sites are patched
// if their targets are resident, and resident blocks' pending CHAIN
// sites to this block are patched. The block is already in the words
// the engine runs, so the fill is a copy and a walk, instruction by
// instruction, for its CHAIN sites; each site's target PC is interned
// once, here.
func (l *L1) Insert(id int32, res *translate.Result) (int, InsertStats) {
	var st InsertStats
	if l.bytes+res.CodeBytes() > l.capacity {
		// Tight packing with wholesale flush, as in the prototype.
		l.reset()
		l.Flushes++
		st.Flushed = true
	}
	idx := l.prog.Append(res.Code)
	l.bytes += res.CodeBytes()
	l.entry = growTo(l.entry, l.ids.Len())
	if l.entry[id] >= 0 {
		l.resident = slices.DeleteFunc(l.resident, func(r int32) bool { return r == id })
	}
	l.entry[id] = int32(idx)
	l.resident = append(l.resident, id)
	st.CopiedWords = len(res.Code)
	if l.NoChain {
		return idx, st
	}

	// Outgoing chaining: patch this block's CHAIN sites whose targets
	// are already resident.
	code := res.Code
	for off := 0; off < len(code); {
		op := code[off].Op()
		if op == rawisa.CHAIN {
			site, target := idx+off, l.ids.ID(uint32(code[off+1]))
			l.entry = growTo(l.entry, l.ids.Len())
			if tidx := l.entry[target]; tidx >= 0 {
				l.prog.Chain(site, int(tidx))
				st.Patches++
			} else {
				l.pending = growTo(l.pending, l.ids.Len())
				if l.pending[target] < 0 {
					l.waiting = append(l.waiting, target)
				}
				l.links = append(l.links, chainLink{int32(site), l.pending[target]})
				l.pending[target] = int32(len(l.links) - 1)
			}
		}
		off += op.Words()
	}
	// Incoming chaining: resident blocks waiting for this block.
	if int(id) < len(l.pending) && l.pending[id] >= 0 {
		for i := l.pending[id]; i >= 0; i = l.links[i].prev {
			l.prog.Chain(int(l.links[i].site), idx)
			st.Patches++
		}
		l.pending[id] = -1
	}
	l.Chains += uint64(st.Patches)
	return idx, st
}

// Contains reports residence without counting a lookup.
func (l *L1) Contains(id int32) bool { return int(id) < len(l.entry) && l.entry[id] >= 0 }

// EntryPCs returns the resident blocks' guest PCs in program
// (insertion) order. Re-inserting the same translations in this order
// reproduces the program layout and chain patches exactly, which is how
// checkpoint restore rebuilds the L1 without snapshotting host code.
func (l *L1) EntryPCs() []uint32 {
	pcs := make([]uint32, len(l.resident))
	for i, id := range l.resident {
		pcs[i] = l.ids.PC(id)
	}
	return pcs
}

// PCForIndex maps a program index back to the guest PC of the block
// entered there (used to resolve chained jumps when execution must be
// interrupted, e.g. on self-modifying-code invalidation).
func (l *L1) PCForIndex(idx int) (uint32, bool) {
	i, ok := slices.BinarySearchFunc(l.resident, idx, func(id int32, idx int) int { return int(l.entry[id]) - idx })
	if !ok {
		return 0, false
	}
	return l.ids.PC(l.resident[i]), true
}

// Flush empties the cache (self-modifying-code invalidation).
func (l *L1) Flush() {
	l.reset()
	l.Flushes++
}

// fifo is a store of translated blocks bounded by their CodeBytes and
// evicted oldest first: an L1.5 bank and the L2 are each one. blocks
// is the residency table by id; order is a ring of the resident blocks
// in insertion order, the oldest at head.
type fifo struct {
	capacity int
	bytes    int
	blocks   []*translate.Result
	order    []fifoEnt
	head, n  int
}

// fifoEnt is one resident block in the eviction ring.
type fifoEnt struct {
	id int32
	pc uint32
}

func newFIFO(capacityBytes int) fifo { return fifo{capacity: capacityBytes} }

// lookup returns block id, nil when it is not resident.
func (c *fifo) lookup(id int32) *translate.Result {
	if int(id) < len(c.blocks) {
		return c.blocks[id]
	}
	return nil
}

// at returns the i-th oldest resident block.
func (c *fifo) at(i int) fifoEnt { return c.order[(c.head+i)&(len(c.order)-1)] }

// insert stores block id (guest PC pc), evicting the oldest entries to
// fit, and reports whether it did: a block already present is left as
// it is.
func (c *fifo) insert(id int32, pc uint32, b *translate.Result) bool {
	if c.lookup(id) != nil {
		return false
	}
	for c.bytes+b.CodeBytes() > c.capacity && c.n > 0 {
		victim := c.at(0)
		c.head = (c.head + 1) & (len(c.order) - 1)
		c.n--
		c.bytes -= c.blocks[victim.id].CodeBytes()
		c.blocks[victim.id] = nil
	}
	c.blocks = extend(c.blocks, int(id)+1)
	c.blocks[id] = b
	c.bytes += b.CodeBytes()
	if c.n == len(c.order) {
		ring := make([]fifoEnt, max(16, 2*len(c.order)))
		for i := range c.n {
			ring[i] = c.at(i)
		}
		c.order, c.head = ring, 0
	}
	c.order[(c.head+c.n)&(len(c.order)-1)] = fifoEnt{id, pc}
	c.n++
	return true
}

// flush empties the store in time proportional to what it holds.
func (c *fifo) flush() {
	for i := range c.n {
		c.blocks[c.at(i).id] = nil
	}
	c.head, c.n, c.bytes = 0, 0, 0
}

// Bytes returns current occupancy.
func (c *fifo) Bytes() int { return c.bytes }

// L15 is one bank of the intermediate code cache: translated blocks,
// FIFO eviction.
type L15 struct {
	fifo

	Lookups uint64
	Hits    uint64
}

// NewL15 builds a bank with the given capacity.
func NewL15(capacityBytes int) *L15 { return &L15{fifo: newFIFO(capacityBytes)} }

// Lookup returns the cached block id.
func (c *L15) Lookup(id int32) (*translate.Result, bool) {
	c.Lookups++
	b := c.lookup(id)
	if b != nil {
		c.Hits++
	}
	return b, b != nil
}

// Insert stores block id (guest PC pc), evicting oldest entries to
// fit. Blocks larger than the bank are not cached.
func (c *L15) Insert(id int32, pc uint32, b *translate.Result) {
	if b.CodeBytes() <= c.capacity {
		c.insert(id, pc, b)
	}
}

// Flush empties the bank (self-modifying-code invalidation).
func (c *L15) Flush() { c.flush() }

// Reset empties the bank and zeroes its counters for a new guest,
// keeping its storage.
func (c *L15) Reset() {
	c.flush()
	c.Lookups, c.Hits = 0, 0
}

// L2 is the manager's code cache over DRAM.
type L2 struct {
	fifo
	removed []int32 // RemoveOverlapping's result

	Accesses uint64
	Misses   uint64
	Stores   uint64
}

// NewL2 builds the DRAM code cache.
func NewL2(capacityBytes int) *L2 { return &L2{fifo: newFIFO(capacityBytes)} }

// Reset empties the cache and zeroes its counters for a new guest,
// keeping its storage.
func (c *L2) Reset() {
	c.flush()
	c.Accesses, c.Misses, c.Stores = 0, 0, 0
}

// Lookup consults the cache, counting an access.
func (c *L2) Lookup(id int32) (*translate.Result, bool) {
	c.Accesses++
	b := c.lookup(id)
	if b == nil {
		c.Misses++
	}
	return b, b != nil
}

// Contains probes without counting.
func (c *L2) Contains(id int32) bool { return c.lookup(id) != nil }

// Insert stores translated block id (guest PC pc), FIFO-evicting if the
// DRAM budget is exceeded (does not happen at our workload scales, but
// the bound is real in the prototype: 105MB).
func (c *L2) Insert(id int32, pc uint32, b *translate.Result) {
	if c.insert(id, pc, b) {
		c.Stores++
	}
}

// Len returns the number of cached blocks.
func (c *L2) Len() int { return c.n }

// OrderedPCs returns the resident blocks' guest PCs in insertion
// order, for checkpoint capture: restore re-translates and re-inserts
// in this order, reproducing FIFO eviction state.
func (c *L2) OrderedPCs() []uint32 {
	pcs := make([]uint32, c.n)
	for i := range pcs {
		pcs[i] = c.at(i).pc
	}
	return pcs
}

// RemoveOverlapping drops every block whose guest byte range
// intersects [lo, hi) and returns the removed ids, oldest first
// (self-modifying-code invalidation). The slice is reused by the next
// call.
func (c *L2) RemoveOverlapping(lo, hi uint32) []int32 {
	c.removed = c.removed[:0]
	kept := 0
	for i := range c.n {
		ent := c.at(i)
		if b := c.blocks[ent.id]; ent.pc < hi && ent.pc+b.GuestLen > lo {
			c.bytes -= b.CodeBytes()
			c.blocks[ent.id] = nil
			c.removed = append(c.removed, ent.id)
			continue
		}
		c.order[(c.head+kept)&(len(c.order)-1)] = ent
		kept++
	}
	c.n = kept
	return c.removed
}
