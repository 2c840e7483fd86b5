package x86interp

import (
	"encoding/binary"
	"testing"

	"tilevm/internal/guest"
	"tilevm/internal/x86"
)

// Self-modifying code against the decode cache. Each program executes
// an instruction, overwrites its bytes with one of the interpreter's own
// stores, and executes it again; the second execution must see the new
// bytes. The decode cache drops everything when a store lands in a 4 KB
// page that holds a decoded instruction or that one spans into. A stale
// decode loops, and runImage's step bound turns that into a failure.

// padTo emits NOPs up to addr.
func padTo(a *x86.Asm, addr uint32) {
	for a.PC() < addr {
		a.Nop()
	}
}

// TestSMCStraddlingInstructionSecondPage patches a JMP rel32 that
// starts two bytes before a 4 KB boundary, through a byte of its
// displacement that lies in the next page. No instruction starts in
// that page, so only the rule for pages a decoded instruction spans
// into can catch the store.
func TestSMCStraddlingInstructionSecondPage(t *testing.T) {
	const boundary = guest.DefaultCodeBase + 0x1000
	build := func(patch byte) *x86.Asm {
		a := x86.NewAsm(guest.DefaultCodeBase)
		a.MovRegImm(x86.EDX, 0)
		a.Label("loop")
		a.Jmp("straddle")
		a.Label("first")
		a.IncReg(x86.EDX)
		a.MovRegImm(x86.ESI, boundary) // displacement byte 1
		a.MovRegImm(x86.EAX, uint32(patch))
		a.MovMemReg8(x86.Mem(x86.ESI, 0), x86.EAX)
		a.Jmp("loop")
		padTo(a, a.LabelAddr("first")+0x100)
		a.Label("second")
		a.MovRegReg(x86.EBX, x86.EDX)
		a.ALU(x86.ADD, x86.RegOp(x86.EBX, 4), x86.ImmOp(40, 4))
		exit(a)
		padTo(a, boundary-2)
		a.Label("straddle")
		a.Jmp("first") // E9 at boundary-2, rel32 at boundary-1..boundary+2
		a.Bytes()
		return a
	}
	layout := build(0)
	if got := layout.LabelAddr("straddle"); got != boundary-2 {
		t.Fatalf("straddling JMP at %#x, want %#x", got, boundary-2)
	}
	// Moving the target from "first" to "second" adds 0x100 to the
	// displacement, which changes only its byte 1 (in the second page).
	old := binary.LittleEndian.Uint32(layout.Bytes()[boundary-1-guest.DefaultCodeBase:])
	next := old + 0x100
	if old&0xffff00ff != next&0xffff00ff {
		t.Fatalf("displacement %#x → %#x changes more than byte 1", old, next)
	}
	p := runImage(t, build(byte(next>>8)).Bytes())
	if p.Kern.ExitCode != 41 {
		t.Errorf("exit = %d, want 41", p.Kern.ExitCode)
	}
}

// TestSMCRepStos overwrites an executed instruction's immediate with a
// REP STOSB.
func TestSMCRepStos(t *testing.T) {
	build := func(patchAddr uint32) *x86.Asm {
		a := x86.NewAsm(guest.DefaultCodeBase)
		a.MovRegImm(x86.EDX, 0)
		a.Label("top")
		a.Label("patch")
		a.MovRegImm(x86.EBX, 1) // imm at patch+1
		a.ALU(x86.CMP, x86.RegOp(x86.EDX, 4), x86.ImmOp(1, 4))
		a.Jcc(x86.CondE, "done")
		a.IncReg(x86.EDX)
		a.Cld()
		a.MovRegImm(x86.EDI, patchAddr+1)
		a.MovRegImm(x86.EAX, 7)
		a.MovRegImm(x86.ECX, 2)
		a.Raw(0xF3, 0xAA) // rep stosb: imm becomes 0x0707
		a.Jmp("top")
		a.Label("done")
		exit(a)
		a.Bytes()
		return a
	}
	p := runImage(t, build(build(0).LabelAddr("patch")).Bytes())
	if p.Kern.ExitCode != 0x0707 {
		t.Errorf("exit = %#x, want 0x707", p.Kern.ExitCode)
	}
}

// TestSMCStackWrite points ESP into decoded code, so the stack write of
// a PUSH or a CALL overwrites an executed instruction's immediate.
func TestSMCStackWrite(t *testing.T) {
	build := func(patchAddr uint32, viaCall bool) *x86.Asm {
		a := x86.NewAsm(guest.DefaultCodeBase)
		a.MovRegImm(x86.EDX, 0)
		a.Label("top")
		a.Label("patch")
		a.MovRegImm(x86.EBX, 1) // imm at patch+1..patch+4
		a.ALU(x86.CMP, x86.RegOp(x86.EDX, 4), x86.ImmOp(1, 4))
		a.Jcc(x86.CondE, "done")
		a.IncReg(x86.EDX)
		a.MovRegReg(x86.EBP, x86.ESP)
		a.MovRegImm(x86.ESP, patchAddr+5)
		if viaCall {
			a.Call("callee") // pushes "ret" over the immediate
			a.Label("ret")
		} else {
			a.MovRegImm(x86.EAX, 55)
			a.Push(x86.EAX)
		}
		a.Label("callee")
		a.MovRegReg(x86.ESP, x86.EBP)
		a.Jmp("top")
		a.Label("done")
		exit(a)
		a.Bytes()
		return a
	}
	t.Run("push", func(t *testing.T) {
		p := runImage(t, build(build(0, false).LabelAddr("patch"), false).Bytes())
		if p.Kern.ExitCode != 55 {
			t.Errorf("exit = %d, want 55", p.Kern.ExitCode)
		}
	})
	t.Run("call", func(t *testing.T) {
		a := build(build(0, true).LabelAddr("patch"), true)
		p := runImage(t, a.Bytes())
		if got, want := uint32(p.Kern.ExitCode), a.LabelAddr("ret"); got != want {
			t.Errorf("exit = %#x, want the return address %#x", got, want)
		}
	})
}

// TestDecodeFailureNotCached faults on undecodable bytes in a page that
// already holds decoded instructions, repairs them with a plain memory
// write (no interpreter store, so nothing is invalidated) and resumes:
// the retry must decode the repaired bytes, so the failure was never
// cached.
func TestDecodeFailureNotCached(t *testing.T) {
	bad := []byte{0x0F, 0x0B} // UD2
	if _, err := x86.Decode(bad, 0); err == nil {
		t.Fatal("UD2 decodes; pick another undecodable sequence")
	}
	a := x86.NewAsm(guest.DefaultCodeBase)
	a.MovRegImm(x86.EBX, 5)
	a.Label("bad")
	a.Raw(bad...)
	exit(a)
	code := a.Bytes()
	img := &guest.Image{Entry: guest.DefaultCodeBase, CodeBase: guest.DefaultCodeBase, Code: code}
	p := guest.Load(img)
	it := New(p)
	if _, err := it.Run(100); err == nil {
		t.Fatal("undecodable bytes did not fault")
	}
	if p.PC != a.LabelAddr("bad") {
		t.Fatalf("faulted at %#x, want %#x", p.PC, a.LabelAddr("bad"))
	}
	p.Mem.WriteBytes(a.LabelAddr("bad"), []byte{0x43, 0x90}) // inc ebx; nop
	exited, err := it.Run(100)
	if err != nil || !exited {
		t.Fatalf("after repair: exited=%v err=%v", exited, err)
	}
	if p.Kern.ExitCode != 6 {
		t.Errorf("exit = %d, want 6", p.Kern.ExitCode)
	}
}
