// Package cachesim provides a set-associative, write-back, LRU cache
// timing model. It tracks tags and dirty bits only (no data): the
// simulated machines keep backing data in flat guest memory, and the
// caches decide what each access costs. The model is shared by the Raw
// tile data caches, the L2 data-cache bank tiles, and the Pentium III
// baseline hierarchy.
package cachesim

import "fmt"

type line struct {
	tag   uint32
	valid bool
	dirty bool
	used  uint64 // LRU stamp
}

// Cache is one level of set-associative cache.
type Cache struct {
	sets      int
	ways      int
	lineBytes int
	setShift  uint
	lineShift uint
	lines     []line // sets*ways, way-major within set
	stamp     uint64

	Accesses  uint64
	Misses    uint64
	Evictions uint64
}

// New builds a cache of the given total size, associativity, and line
// size. Size must be a multiple of ways*lineBytes and all parameters
// powers of two.
func New(sizeBytes, ways, lineBytes int) *Cache {
	if sizeBytes <= 0 || ways <= 0 || lineBytes <= 0 {
		panic(fmt.Sprintf("cachesim: bad geometry %d/%d/%d", sizeBytes, ways, lineBytes))
	}
	sets := sizeBytes / (ways * lineBytes)
	if sets == 0 || sets&(sets-1) != 0 || lineBytes&(lineBytes-1) != 0 {
		panic(fmt.Sprintf("cachesim: non-power-of-two geometry: %d sets, %d-byte lines", sets, lineBytes))
	}
	return &Cache{
		sets:      sets,
		ways:      ways,
		lineBytes: lineBytes,
		lineShift: log2(lineBytes),
		setShift:  log2(lineBytes) + log2(sets),
		lines:     make([]line, sets*ways),
	}
}

func log2(v int) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Result describes the outcome of one access.
type Result struct {
	Hit         bool
	WritebackOf uint32 // line address written back, if Writeback
	Writeback   bool   // a dirty line was evicted
	LineAddr    uint32 // line-aligned address of the accessed line
}

// Access touches addr. write marks the line dirty. On a miss the line is
// filled (allocate-on-write policy) and the LRU victim evicted.
func (c *Cache) Access(addr uint32, write bool) Result {
	c.Accesses++
	c.stamp++
	lineAddr := addr &^ uint32(c.lineBytes-1)
	set := int(addr>>c.lineShift) & (c.sets - 1)
	tag := addr >> c.setShift
	base := set * c.ways

	victim := base
	for i := base; i < base+c.ways; i++ {
		l := &c.lines[i]
		if l.valid && l.tag == tag {
			l.used = c.stamp
			if write {
				l.dirty = true
			}
			return Result{Hit: true, LineAddr: lineAddr}
		}
		if !c.lines[victim].valid {
			continue // keep first invalid victim
		}
		if !l.valid || l.used < c.lines[victim].used {
			victim = i
		}
	}

	c.Misses++
	res := Result{LineAddr: lineAddr}
	v := &c.lines[victim]
	if v.valid {
		c.Evictions++
		if v.dirty {
			res.Writeback = true
			res.WritebackOf = c.victimAddr(set, v.tag)
		}
	}
	*v = line{tag: tag, valid: true, dirty: write, used: c.stamp}
	return res
}

// Contains reports whether addr's line is resident, without touching
// LRU state or counters.
func (c *Cache) Contains(addr uint32) bool {
	set := int(addr>>c.lineShift) & (c.sets - 1)
	tag := addr >> c.setShift
	for i := set * c.ways; i < (set+1)*c.ways; i++ {
		if c.lines[i].valid && c.lines[i].tag == tag {
			return true
		}
	}
	return false
}

func (c *Cache) victimAddr(set int, tag uint32) uint32 {
	return tag<<c.setShift | uint32(set)<<c.lineShift
}

// FlushAll invalidates every line and returns the number of dirty lines
// that required writeback (the reconfiguration flush cost driver).
func (c *Cache) FlushAll() (dirty int) {
	for i := range c.lines {
		if c.lines[i].valid && c.lines[i].dirty {
			dirty++
		}
		c.lines[i] = line{}
	}
	return dirty
}

// DirtyLines counts currently dirty lines without modifying state.
func (c *Cache) DirtyLines() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid && c.lines[i].dirty {
			n++
		}
	}
	return n
}

// MissRate returns misses/accesses, or 0 with no accesses.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// Reset empties the cache and clears its counters and LRU clock, leaving
// it as New left it, in the storage it has.
func (c *Cache) Reset() {
	clear(c.lines)
	c.stamp = 0
	c.ResetStats()
}

// ResetStats clears the counters but keeps cache contents.
func (c *Cache) ResetStats() { c.Accesses, c.Misses, c.Evictions = 0, 0, 0 }

// LineState is one cache line in an exported snapshot.
type LineState struct {
	Tag   uint32
	Valid bool
	Dirty bool
	Used  uint64
}

// State is a restorable snapshot of a cache: full tag/LRU/dirty
// contents plus counters. The geometry itself is not captured — a
// snapshot can only be imported into a cache of identical geometry.
type State struct {
	Lines     []LineState
	Stamp     uint64
	Accesses  uint64
	Misses    uint64
	Evictions uint64
}

// Export snapshots the cache contents and counters.
func (c *Cache) Export() State {
	s := State{
		Lines:     make([]LineState, len(c.lines)),
		Stamp:     c.stamp,
		Accesses:  c.Accesses,
		Misses:    c.Misses,
		Evictions: c.Evictions,
	}
	for i, l := range c.lines {
		s.Lines[i] = LineState{Tag: l.tag, Valid: l.valid, Dirty: l.dirty, Used: l.used}
	}
	return s
}

// Import restores a snapshot taken from a cache of the same geometry.
func (c *Cache) Import(s State) error {
	if len(s.Lines) != len(c.lines) {
		return fmt.Errorf("cachesim: snapshot has %d lines, cache has %d", len(s.Lines), len(c.lines))
	}
	for i, l := range s.Lines {
		c.lines[i] = line{tag: l.Tag, valid: l.Valid, dirty: l.Dirty, used: l.Used}
	}
	c.stamp = s.Stamp
	c.Accesses, c.Misses, c.Evictions = s.Accesses, s.Misses, s.Evictions
	return nil
}
