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
// These are pure data structures plus accounting; the tile kernels in
// internal/core charge the modeled cycle costs.
package codecache

import (
	"slices"
	"sort"

	"tilevm/internal/rawexec"
	"tilevm/internal/rawisa"
	"tilevm/internal/translate"
)

// L1 is the execution tile's code cache: the instruction memory, held
// as the program the execution engine runs, with an entry map from
// guest PC to program index.
type L1 struct {
	capacity int
	prog     rawexec.Program
	bytes    int
	entry    map[uint32]int
	// pending and next chain the unpatched CHAIN sites waiting for a
	// target to become resident: pending holds the program index of the
	// last site waiting on each guest target, next[site] the site that
	// waited before it (-1 ends the list). next stands beside the
	// program and, like it, keeps its storage across a flush, so a fill
	// allocates nothing for its chain sites.
	pending map[uint32]int32
	next    []int32

	Lookups uint64
	Hits    uint64
	Flushes uint64
	Chains  uint64

	// NoChain leaves CHAIN sites unpatched (ablation).
	NoChain bool
}

// NewL1 builds an L1 code cache with the given byte capacity.
func NewL1(capacityBytes int) *L1 {
	return &L1{capacity: capacityBytes, entry: map[uint32]int{}, pending: map[uint32]int32{}}
}

func (l *L1) reset() {
	l.prog.Reset()
	l.bytes = 0
	clear(l.entry)
	clear(l.pending)
}

// Program exposes the instruction memory to the execution engine. It
// is the same Program for the life of the cache; indices from Lookup
// and Insert are valid in it until the next flush.
func (l *L1) Program() *rawexec.Program { return &l.prog }

// Bytes returns the occupied size.
func (l *L1) Bytes() int { return l.bytes }

// Lookup finds the program index for a guest PC.
func (l *L1) Lookup(pc uint32) (int, bool) {
	l.Lookups++
	idx, ok := l.entry[pc]
	if ok {
		l.Hits++
	}
	return idx, ok
}

// InsertStats reports the work done by an insert, for cycle charging.
type InsertStats struct {
	CopiedWords int
	Patches     int
	Flushed     bool
}

// Insert copies a translated block into the instruction memory
// (flushing first if it does not fit), records its entry, and performs
// chaining in both directions: the new block's CHAIN sites are patched
// if their targets are resident, and resident blocks' pending CHAIN
// sites to this block are patched. The block is already in the form the
// engine runs, so the fill is a copy and a walk for its CHAIN sites.
func (l *L1) Insert(pc uint32, res *translate.Result) (int, InsertStats) {
	var st InsertStats
	if l.bytes+res.CodeBytes > l.capacity {
		// Tight packing with wholesale flush, as in the prototype.
		l.reset()
		l.Flushes++
		st.Flushed = true
	}
	idx := l.prog.Append(res.Code)
	if n := l.prog.Len(); len(l.next) < n {
		l.next = slices.Grow(l.next, n-len(l.next))[:n]
	}
	l.bytes += res.CodeBytes
	l.entry[pc] = idx
	st.CopiedWords = res.CodeBytes / 4
	if l.NoChain {
		return idx, st
	}

	// Outgoing chaining: patch this block's CHAIN sites whose targets
	// are already resident.
	for off, in := range res.Code {
		if in.Op != rawisa.CHAIN {
			continue
		}
		site, target := idx+off, in.GuestPC()
		if tidx, ok := l.entry[target]; ok {
			l.prog.Chain(site, tidx)
			st.Patches++
		} else {
			l.next[site] = -1
			if prev, ok := l.pending[target]; ok {
				l.next[site] = prev
			}
			l.pending[target] = int32(site)
		}
	}
	// Incoming chaining: resident blocks waiting for this PC.
	if site, ok := l.pending[pc]; ok {
		for ; site >= 0; site = l.next[site] {
			l.prog.Chain(int(site), idx)
			st.Patches++
		}
		delete(l.pending, pc)
	}
	l.Chains += uint64(st.Patches)
	return idx, st
}

// Contains reports residence without counting a lookup.
func (l *L1) Contains(pc uint32) bool {
	_, ok := l.entry[pc]
	return ok
}

// EntryPCs returns the resident blocks' guest PCs in program
// (insertion) order. Re-inserting the same translations in this order
// reproduces the program layout and chain patches exactly, which is how
// checkpoint restore rebuilds the L1 without snapshotting host code.
func (l *L1) EntryPCs() []uint32 {
	type ent struct {
		pc  uint32
		idx int
	}
	ents := make([]ent, 0, len(l.entry))
	for pc, idx := range l.entry {
		ents = append(ents, ent{pc, idx})
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].idx < ents[j].idx })
	pcs := make([]uint32, len(ents))
	for i, e := range ents {
		pcs[i] = e.pc
	}
	return pcs
}

// PCForIndex maps a program index back to the guest PC of the block
// entered there (used to resolve chained jumps when execution must be
// interrupted, e.g. on self-modifying-code invalidation).
func (l *L1) PCForIndex(idx int) (uint32, bool) {
	for pc, i := range l.entry {
		if i == idx {
			return pc, true
		}
	}
	return 0, false
}

// Flush empties the cache (self-modifying-code invalidation).
func (l *L1) Flush() {
	l.reset()
	l.Flushes++
}

// fifo is a store of translated blocks bounded by their CodeBytes and
// evicted oldest first: an L1.5 bank and the L2 are each one.
type fifo struct {
	capacity int
	bytes    int
	blocks   map[uint32]*translate.Result
	order    []uint32
}

func newFIFO(capacityBytes int) fifo {
	return fifo{capacity: capacityBytes, blocks: make(map[uint32]*translate.Result)}
}

// insert stores a block, evicting the oldest entries to fit, and
// reports whether it did: a PC already present is left as it is.
func (c *fifo) insert(pc uint32, b *translate.Result) bool {
	if _, dup := c.blocks[pc]; dup {
		return false
	}
	for c.bytes+b.CodeBytes > c.capacity && len(c.order) > 0 {
		victim := c.order[0]
		c.order = c.order[1:]
		if vb, ok := c.blocks[victim]; ok {
			c.bytes -= vb.CodeBytes
			delete(c.blocks, victim)
		}
	}
	c.blocks[pc] = b
	c.bytes += b.CodeBytes
	c.order = append(c.order, pc)
	return true
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

// Lookup returns the cached block for a guest PC.
func (c *L15) Lookup(pc uint32) (*translate.Result, bool) {
	c.Lookups++
	b, ok := c.blocks[pc]
	if ok {
		c.Hits++
	}
	return b, ok
}

// Insert stores a block, evicting oldest entries to fit. Blocks larger
// than the bank are not cached.
func (c *L15) Insert(pc uint32, b *translate.Result) {
	if b.CodeBytes <= c.capacity {
		c.insert(pc, b)
	}
}

// Flush empties the bank (self-modifying-code invalidation).
func (c *L15) Flush() {
	clear(c.blocks)
	c.order = c.order[:0]
	c.bytes = 0
}

// L2 is the manager's code cache over DRAM.
type L2 struct {
	fifo

	Accesses uint64
	Misses   uint64
	Stores   uint64
}

// NewL2 builds the DRAM code cache.
func NewL2(capacityBytes int) *L2 { return &L2{fifo: newFIFO(capacityBytes)} }

// Lookup consults the cache, counting an access.
func (c *L2) Lookup(pc uint32) (*translate.Result, bool) {
	c.Accesses++
	b, ok := c.blocks[pc]
	if !ok {
		c.Misses++
	}
	return b, ok
}

// Contains probes without counting (used by the speculation queues to
// dedup work).
func (c *L2) Contains(pc uint32) bool {
	_, ok := c.blocks[pc]
	return ok
}

// Insert stores a translated block, FIFO-evicting if the DRAM budget is
// exceeded (does not happen at our workload scales, but the bound is
// real in the prototype: 105MB).
func (c *L2) Insert(pc uint32, b *translate.Result) {
	if c.insert(pc, b) {
		c.Stores++
	}
}

// Len returns the number of cached blocks.
func (c *L2) Len() int { return len(c.blocks) }

// OrderedPCs returns the resident blocks' guest PCs in insertion
// order, for checkpoint capture: restore re-translates and re-inserts
// in this order, reproducing FIFO eviction state.
func (c *L2) OrderedPCs() []uint32 {
	pcs := make([]uint32, 0, len(c.blocks))
	for _, pc := range c.order {
		if _, ok := c.blocks[pc]; ok {
			pcs = append(pcs, pc)
		}
	}
	return pcs
}

// RemoveOverlapping drops every block whose guest byte range
// intersects [lo, hi) and returns the removed entry PCs
// (self-modifying-code invalidation).
func (c *L2) RemoveOverlapping(lo, hi uint32) []uint32 {
	var removed []uint32
	for pc, b := range c.blocks {
		if pc < hi && pc+b.GuestLen > lo {
			c.bytes -= b.CodeBytes
			delete(c.blocks, pc)
			removed = append(removed, pc)
		}
	}
	if len(removed) > 0 {
		kept := c.order[:0]
		for _, pc := range c.order {
			if _, ok := c.blocks[pc]; ok {
				kept = append(kept, pc)
			}
		}
		c.order = kept
	}
	return removed
}
