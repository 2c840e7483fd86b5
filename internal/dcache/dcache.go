// Package dcache implements an L2 data-cache bank tile's state (paper
// §3.2): a transactor servicing memory requests for a fraction of the
// physical address space. Banks are line-interleaved; when the number
// of banks changes (dynamic reconfiguration), every bank must be
// flushed because the interleaving function changes — that writeback is
// the dominant morphing cost the paper describes.
package dcache

import "tilevm/internal/cachesim"

// Bank is one L2 data cache bank.
type Bank struct {
	Cache *cachesim.Cache

	Requests  uint64
	Misses    uint64
	Flushes   uint64
	Writeback uint64 // lines written back (evictions + flushes)
}

// NewBank builds a bank with the given geometry.
func NewBank(sizeBytes, ways, lineBytes int) *Bank {
	return &Bank{Cache: cachesim.New(sizeBytes, ways, lineBytes)}
}

// Reset empties the bank and clears its counters, leaving it as NewBank
// left it, in the storage it has: a tile keeps its bank across the
// guests it serves.
func (b *Bank) Reset() {
	b.Cache.Reset()
	b.Requests, b.Misses, b.Flushes, b.Writeback = 0, 0, 0, 0
}

// Access services one request for a physical address. It reports
// whether the line missed (DRAM fetch needed) and whether a dirty
// victim was written back.
func (b *Bank) Access(paddr uint32, write bool) (miss, writeback bool) {
	b.Requests++
	res := b.Cache.Access(paddr, write)
	if !res.Hit {
		b.Misses++
	}
	if res.Writeback {
		b.Writeback++
	}
	return !res.Hit, res.Writeback
}

// Flush writes back all dirty lines and invalidates the bank,
// returning the number of lines written back.
func (b *Bank) Flush() int {
	dirty := b.Cache.FlushAll()
	b.Flushes++
	b.Writeback += uint64(dirty)
	return dirty
}

// BankFor returns the servicing bank index for a physical address
// under line interleaving across n banks.
func BankFor(paddr uint32, lineBytes, n int) int {
	if n <= 1 {
		return 0
	}
	return int(paddr) / lineBytes % n
}

// LocalAddr maps a physical address to the servicing bank's local
// address space by stripping the interleave bits, so the bank's set
// index uses consecutive lines. Without this a bank would only ever
// touch 1/n of its sets.
func LocalAddr(paddr uint32, lineBytes, n int) uint32 {
	if n <= 1 {
		return paddr
	}
	line := paddr / uint32(lineBytes)
	return line/uint32(n)*uint32(lineBytes) | paddr&uint32(lineBytes-1)
}
