package codecache

import (
	"slices"
	"testing"

	"tilevm/internal/translate"
)

// refFIFO is the reference the ring FIFO is checked against: a map of
// resident blocks by guest PC beside a slice of PCs in insertion order,
// evicting from its front.
type refFIFO struct {
	capacity int
	bytes    int
	blocks   map[uint32]*translate.Result
	order    []uint32
}

func newRefFIFO(capacity int) *refFIFO {
	return &refFIFO{capacity: capacity, blocks: map[uint32]*translate.Result{}}
}

func (c *refFIFO) insert(pc uint32, b *translate.Result) bool {
	if _, dup := c.blocks[pc]; dup {
		return false
	}
	for c.bytes+b.CodeBytes() > c.capacity && len(c.order) > 0 {
		victim := c.order[0]
		c.order = c.order[1:]
		if vb, ok := c.blocks[victim]; ok {
			c.bytes -= vb.CodeBytes()
			delete(c.blocks, victim)
		}
	}
	c.blocks[pc] = b
	c.bytes += b.CodeBytes()
	c.order = append(c.order, pc)
	return true
}

func (c *refFIFO) flush() {
	clear(c.blocks)
	c.order = c.order[:0]
	c.bytes = 0
}

// removeOverlapping drops the blocks whose guest bytes meet [lo, hi)
// and returns their PCs, oldest first.
func (c *refFIFO) removeOverlapping(lo, hi uint32) []uint32 {
	var removed []uint32
	kept := c.order[:0]
	for _, pc := range c.order {
		if b := c.blocks[pc]; pc < hi && pc+b.GuestLen > lo {
			c.bytes -= b.CodeBytes()
			delete(c.blocks, pc)
			removed = append(removed, pc)
		} else {
			kept = append(kept, pc)
		}
	}
	c.order = kept
	return removed
}

// ringPCs returns a fifo's resident PCs, oldest first.
func ringPCs(c *fifo) []uint32 {
	pcs := make([]uint32, c.n)
	for i := range pcs {
		pcs[i] = c.at(i).pc
	}
	return pcs
}

// FuzzFIFO drives an L1.5 bank and an L2 through random sequences of
// inserts, lookups, self-modifying-code removals and flushes, beside a
// reference each, and requires the same residency, eviction order and
// occupancy after every step. Blocks come from a universe of 48 PCs,
// each with its own size, so evictions, duplicates and re-insertions
// after eviction all occur.
func FuzzFIFO(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 2, 2, 1, 3, 0})
	f.Add([]byte("\x00\x05\x00\x17\x00\x2f\x00\x05\x02\x11\x00\x06\x03\x00\x00\x09"))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		ids := NewIDs()
		const universe = 48
		blocks := make([]*translate.Result, universe)
		pcOf := func(b byte) uint32 { return 0x1000 + uint32(b%universe)*24 }
		for i := range blocks {
			blocks[i] = &translate.Result{Code: block(i%13, 0), GuestLen: uint32(8 + i%5*12)}
		}
		bank, l2 := NewL15(400), NewL2(700)
		rBank, rL2 := newRefFIFO(400), newRefFIFO(700)
		for i := 0; i+1 < len(ops); i += 2 {
			arg := ops[i+1]
			pc := pcOf(arg)
			id := ids.ID(pc)
			b := blocks[arg%universe]
			switch ops[i] % 4 {
			case 0:
				bank.Insert(id, pc, b)
				if b.CodeBytes() <= rBank.capacity {
					rBank.insert(pc, b)
				}
				l2.Insert(id, pc, b)
				rL2.insert(pc, b)
			case 1:
				got, _ := bank.Lookup(id)
				if want := rBank.blocks[pc]; got != want {
					t.Fatalf("step %d: L1.5 lookup of %#x = %p, want %p", i/2, pc, got, want)
				}
				got, _ = l2.Lookup(id)
				if want := rL2.blocks[pc]; got != want {
					t.Fatalf("step %d: L2 lookup of %#x = %p, want %p", i/2, pc, got, want)
				}
			case 2:
				lo := pc - uint32(arg%40)
				hi := lo + 1 + uint32(arg%70)
				var got []uint32
				for _, rid := range l2.RemoveOverlapping(lo, hi) {
					got = append(got, ids.PC(rid))
				}
				if want := rL2.removeOverlapping(lo, hi); !slices.Equal(got, want) {
					t.Fatalf("step %d: RemoveOverlapping(%#x, %#x) = %#x, want %#x", i/2, lo, hi, got, want)
				}
			case 3:
				bank.Flush()
				rBank.flush()
			}
			for _, c := range []struct {
				name string
				got  *fifo
				want *refFIFO
			}{{"L1.5", &bank.fifo, rBank}, {"L2", &l2.fifo, rL2}} {
				if got := ringPCs(c.got); !slices.Equal(got, c.want.order) {
					t.Fatalf("step %d: %s order %#x, want %#x", i/2, c.name, got, c.want.order)
				}
				if c.got.Bytes() != c.want.bytes {
					t.Fatalf("step %d: %s holds %d bytes, want %d", i/2, c.name, c.got.Bytes(), c.want.bytes)
				}
				for u := range byte(universe) {
					upc := pcOf(u)
					got := c.got.lookup(ids.ID(upc))
					if want := c.want.blocks[upc]; got != want {
						t.Fatalf("step %d: %s residency of %#x = %p, want %p", i/2, c.name, upc, got, want)
					}
				}
			}
			if l2.Len() != len(rL2.blocks) || !slices.Equal(l2.OrderedPCs(), rL2.order) {
				t.Fatalf("step %d: L2 Len %d, OrderedPCs %#x; want %d, %#x", i/2, l2.Len(), l2.OrderedPCs(), len(rL2.blocks), rL2.order)
			}
		}
	})
}
