package rawexec

import (
	"fmt"

	"tilevm/internal/guest"
	"tilevm/internal/x86interp"
)

// FlatEnv is an Env over plain guest process state with configurable
// flat memory timing: no MMU pipeline, no cache model. It is used by
// unit/differential tests and by the quickstart example; the machine
// simulation installs its own Env with the pipelined memory system.
type FlatEnv struct {
	P   *guest.Process
	Clk Clock

	// Timing knobs (all may be zero for functional-only runs).
	LoadLat  uint64
	LoadOcc  uint64
	StoreOcc uint64

	// Assists counts interpreter fallbacks; Syscalls counts traps.
	Assists  uint64
	Syscalls uint64

	// Self-modifying-code detection (see RegisterCodePages).
	CodePages  map[uint32]bool
	SMCPending bool

	interp *x86interp.Interp
}

// NewFlatEnv builds a flat environment for a loaded process.
func NewFlatEnv(p *guest.Process, clk Clock) *FlatEnv {
	return &FlatEnv{P: p, Clk: clk, interp: x86interp.New(p)}
}

// GuestLoad implements Env.
func (e *FlatEnv) GuestLoad(addr uint32, size uint8, signed bool) (uint32, uint64) {
	e.Clk.Tick(e.LoadOcc)
	v := e.P.Mem.ReadN(addr, size)
	if signed && size != 4 {
		shift := 32 - uint(size)*8
		v = uint32(int32(v<<shift) >> shift)
	}
	return v, e.Clk.Now() + e.LoadLat
}

// GuestStore implements Env.
func (e *FlatEnv) GuestStore(addr uint32, val uint32, size uint8) {
	e.Clk.Tick(e.StoreOcc)
	e.P.Mem.WriteN(addr, val, size)
	e.checkSMC(addr, size)
}

// Syscall implements Env.
func (e *FlatEnv) Syscall(cpu *CPU) {
	e.Syscalls++
	cpu.StoreGuest(&e.P.CPU)
	e.P.Kern.Syscall(e.P.Mem, &e.P.R)
	cpu.LoadGuest(&e.P.CPU)
}

// Assist implements Env: it executes the single guest instruction at
// guestPC through the reference interpreter and reloads the pinned
// registers.
func (e *FlatEnv) Assist(guestPC uint32, cpu *CPU) error {
	e.Assists++
	cpu.StoreGuest(&e.P.CPU)
	e.P.PC = guestPC
	e.interp.OnMem = func(addr uint32, size uint8, write bool) {
		if write {
			e.checkSMC(addr, size)
		}
	}
	err := e.interp.Step()
	e.interp.OnMem = nil
	if err != nil {
		return err
	}
	if e.P.Kern.Exited {
		// Assisted instructions never invoke the kernel; exit comes
		// through SYSC.
		return fmt.Errorf("rawexec: assist at %#x unexpectedly exited", guestPC)
	}
	cpu.LoadGuest(&e.P.CPU)
	return nil
}

// Stopped implements Env.
func (e *FlatEnv) Stopped() bool { return e.P.Kern.Exited }

// Interrupted implements Env: set when a store hits a registered code
// page (self-modifying code); the caller must drop cached translations
// and clear the flag.
func (e *FlatEnv) Interrupted(uint64) bool { return e.SMCPending }

// RegisterCodePages marks the 4KB pages covered by a translated block
// so stores into them raise the SMC interrupt.
func (e *FlatEnv) RegisterCodePages(addr, length uint32) {
	if e.CodePages == nil {
		e.CodePages = make(map[uint32]bool)
	}
	for pg := addr >> 12; pg <= (addr+length-1)>>12; pg++ {
		e.CodePages[pg] = true
	}
}

func (e *FlatEnv) checkSMC(addr uint32, size uint8) {
	if e.CodePages == nil {
		return
	}
	for pg := addr >> 12; pg <= (addr+uint32(size)-1)>>12; pg++ {
		if e.CodePages[pg] {
			e.SMCPending = true
			// The assist interpreter's decode cache sees only its own
			// stores, not translated code's.
			e.interp = x86interp.New(e.P)
			return
		}
	}
}

var _ Env = (*FlatEnv)(nil)
