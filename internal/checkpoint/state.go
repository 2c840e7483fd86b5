// Package checkpoint implements the in-memory whole-machine snapshots
// that rollback recovery restores, the deterministic event journal, and
// the TVRC record format that tilevm -record writes and -replay reads.
//
// A State holds exactly what a restore reads: the guest-visible
// machine (memory image, registers, kernel state), the timing-model
// state that must survive exactly (MMU/TLB contents, the exec tile's
// data cache), and the code caches in *generative* form — translation
// is a pure function of guest memory, so the L2 code cache is recorded
// as its ordered entry PCs and rebuilt by re-translating, and the L1
// arena (including chain patches) is reproduced by re-inserting those
// translations in arena order. In-flight messages are not captured: a
// capture is taken where the execution tile has no request out, and a
// restore starts its tiles afresh. Snapshots live only in memory;
// nothing serializes them.
//
// Capture is incremental: guest pages unwritten since the previous
// snapshot share its backing (see guest.Memory.Capture), and capturing
// charges no virtual cycles, so checkpointing never distorts cycle
// accounting. The modeled restore cost is charged at rollback time
// instead (raw.Params.RollbackFixedOcc/RollbackPerPageOcc).
package checkpoint

import (
	"tilevm/internal/cachesim"
	"tilevm/internal/guest"
	"tilevm/internal/metrics"
	"tilevm/internal/mmu"
)

// QueuedPC is one pending translation in the manager's priority
// buckets (or in flight to a slave) at capture time.
type QueuedPC struct {
	PC    uint32
	Depth int32
}

// CodeL1State records the exec tile's L1 code cache as ordered entry
// PCs plus counters.
type CodeL1State struct {
	PCs     []uint32
	Lookups uint64
	Hits    uint64
	Flushes uint64
	Chains  uint64
}

// CodeL2State records the manager's L2 code cache the same way.
type CodeL2State struct {
	PCs      []uint32
	Accesses uint64
	Misses   uint64
	Stores   uint64
}

// PageInval is one entry of the self-modifying-code invalidation map.
type PageInval struct {
	Page uint32
	Gen  uint64
}

// SMCState captures the engine's self-modifying-code bookkeeping.
type SMCState struct {
	Gen       uint64
	CodePages []uint32
	Inval     []PageInval
}

// State is one whole-machine snapshot.
type State struct {
	Seq    uint64 // capture sequence number within the run
	Cycles uint64 // virtual time of the capture

	CPU  guest.CPU
	Kern guest.KernelState
	Mem  *guest.MemImage

	MMU mmu.State
	DL1 cachesim.State
	L1  CodeL1State
	L2C CodeL2State

	Queues []QueuedPC // manager work queue + in-flight translations
	Spec   []uint32   // speculatively-stored PCs not yet demanded
	Bad    []uint32   // PCs whose translation failed

	SMC SMCState

	Metrics metrics.Set
}

// Checkpointer owns the capture cadence and the incremental-capture
// chain for one run. It survives rollback: the same Checkpointer is
// handed to each re-execution attempt so Last always names the newest
// snapshot.
type Checkpointer struct {
	Interval uint64

	next uint64
	seq  uint64
	prev *guest.MemImage
	last *State
}

// NewCheckpointer returns a checkpointer that captures every interval
// cycles (the first capture is due at interval, not at 0).
func NewCheckpointer(interval uint64) *Checkpointer {
	return &Checkpointer{Interval: interval, next: interval}
}

// Due reports whether a capture should be taken at the given cycle.
func (c *Checkpointer) Due(now uint64) bool {
	return c != nil && now >= c.next
}

// Capture finalizes a snapshot the engine has filled in: it assigns the
// sequence number, snapshots memory incrementally against the previous
// capture, and advances the cadence.
func (c *Checkpointer) Capture(s *State, mem *guest.Memory, now uint64) {
	s.Seq = c.seq
	c.seq++
	s.Cycles = now
	s.Mem = mem.Capture(c.prev)
	c.prev = s.Mem
	c.last = s
	c.next = now + c.Interval
}

// Last returns the newest snapshot, or nil if none has been taken.
func (c *Checkpointer) Last() *State {
	if c == nil {
		return nil
	}
	return c.last
}

// Rearm resets the incremental-capture chain after a rollback: the
// restored run owns a fresh Memory, whose pages cannot be shared
// against the old chain, so the next capture must be a full one.
func (c *Checkpointer) Rearm() {
	if c != nil {
		c.prev = nil
	}
}

// FinalHash condenses the guest-visible final state of a run —
// registers, flags, PC, exit status, stdout, and the memory content
// hash — into one value. Two runs with equal FinalHash ended in
// bit-identical guest-visible states (up to hash collision); rollback
// recovery's acceptance bar is FinalHash equality with the fault-free
// run.
func FinalHash(p *guest.Process) uint64 {
	h := hashInit()
	for _, r := range p.R {
		h = hashU64(h, uint64(r))
	}
	h = hashU64(h, uint64(p.Flags))
	h = hashU64(h, uint64(p.PC))
	h = hashU64(h, boolU64(p.Kern.Exited))
	h = hashU64(h, uint64(uint32(p.Kern.ExitCode)))
	for _, b := range p.Kern.Stdout.Bytes() {
		h = hashU64(h, uint64(b))
	}
	h = hashU64(h, p.Mem.Hash())
	return h
}

func hashInit() uint64 { return 14695981039346656037 }

func hashU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	return h
}

func boolU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
