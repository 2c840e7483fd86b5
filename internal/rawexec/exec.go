// Package rawexec executes translated host code on the
// runtime-execution tile: a functional interpreter for the Raw ISA with
// an in-order single-issue timing model (per-register scoreboard for
// load-use stalls). Guest memory, syscalls, and interpreter assists are
// delegated to an Env so the same engine runs standalone in unit tests
// (flat memory, free timing) and inside the simulated machine (tile
// D-cache, pipelined MMU/L2 messages, virtual time).
package rawexec

import (
	"fmt"

	"tilevm/internal/guest"
	"tilevm/internal/rawisa"
)

// Clock is the execution tile's cycle counter. Inside the machine
// simulation it wraps the tile's sim process; in tests it is a plain
// counter.
type Clock interface {
	Now() uint64
	Tick(d uint64)
}

// CountClock is the trivial Clock used by tests and standalone runs.
type CountClock struct{ T uint64 }

// Now returns the current cycle.
func (c *CountClock) Now() uint64 { return c.T }

// Tick advances the counter.
func (c *CountClock) Tick(d uint64) { c.T += d }

// Env supplies the execution engine's external operations.
type Env interface {
	// GuestLoad reads guest memory, charging issue occupancy on the
	// clock itself and returning the loaded (extended) value along
	// with the absolute cycle at which it is ready for use.
	GuestLoad(addr uint32, size uint8, signed bool) (val uint32, readyAt uint64)
	// GuestStore writes guest memory, charging occupancy internally.
	GuestStore(addr uint32, val uint32, size uint8)
	// Syscall services a guest syscall against the pinned registers.
	Syscall(cpu *CPU)
	// Assist executes one guest instruction via the interpreter
	// fallback and writes the architectural state back.
	Assist(guestPC uint32, cpu *CPU) error
	// Stopped reports that the guest has exited; Exec returns
	// immediately after the syscall that set it (chained successor
	// blocks must not run).
	Stopped() bool
	// Interrupted reports that execution must return to the dispatch
	// loop at the next block boundary (e.g. a store hit a translated
	// code page and the caches must be invalidated). Chained jumps are
	// not followed while it is set.
	Interrupted() bool
}

// scratchWords is the tile-local runtime scratch memory addressable by
// host LW/SW (spill and runtime bookkeeping space).
const scratchWords = 2048

// CPU is the host register state of the execution tile.
type CPU struct {
	R       [rawisa.NumRegs]uint32
	HI, LO  uint32
	ready   [rawisa.NumRegs]uint64
	readyMD uint64 // HI/LO ready time
	Scratch [scratchWords]uint32
}

// LoadGuest pins guest architectural state into the host registers.
func (c *CPU) LoadGuest(g *guest.CPU) {
	for i := 0; i < 8; i++ {
		c.R[rawisa.RegEAX+i] = g.R[i]
	}
	c.R[rawisa.RegFlags] = g.Flags
}

// StoreGuest writes the pinned registers back to guest state.
func (c *CPU) StoreGuest(g *guest.CPU) {
	for i := 0; i < 8; i++ {
		g.R[i] = c.R[rawisa.RegEAX+i]
	}
	g.Flags = c.R[rawisa.RegFlags] & 0xfff
}

// Fault is a host-level execution fault (bad opcode, divide error,
// assist fault).
type Fault struct {
	Index  int
	Reason string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("rawexec: fault at code index %d: %s", f.Index, f.Reason)
}

// Exit describes why Exec returned.
type Exit struct {
	NextPC uint32 // next guest PC to dispatch
	Insts  uint64 // host instructions retired
	// Interrupted is set when a chained jump was suppressed because
	// the Env reported an interrupt; ChainIdx then holds the arena
	// index the suppressed jump targeted (a block entry) and NextPC is
	// not meaningful until the caller resolves it.
	Interrupted bool
	ChainIdx    int
}

// MulLatency is the result latency of MULT/DIV before MFHI/MFLO.
const MulLatency = 4

// BranchPenalty is the pipeline-refill cost of a taken branch or jump
// on the 8-stage in-order tile (static not-taken prediction).
const BranchPenalty = 2

// Exec runs host code within arena starting at index start until an
// exit instruction. maxInsts bounds execution (0 = unbounded) for
// tests; inside the machine the simulator's time limit is the watchdog.
// The arena is run in place and not written.
func Exec(cpu *CPU, arena []rawisa.Inst, start int, clk Clock, env Env, maxInsts uint64) (Exit, error) {
	p := Program{code: arena}
	return p.Exec(cpu, start, clk, env, maxInsts)
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
