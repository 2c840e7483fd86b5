package translate

import (
	"testing"

	"tilevm/internal/guest"
	"tilevm/internal/x86"
	"tilevm/internal/x86interp"
)

// TestImm8Values pins the value each engine takes from an 8-bit
// immediate, for every opcode that has one. Each row is the raw
// encoding of one instruction, set up so that the value it used ends up
// in EBX, which becomes the exit code; the reference interpreter and
// the translator, optimizer on and off, must all produce want. 0x81 is
// here as the full-width twin of 0x83, and 0x66 rows run the 16-bit
// forms.
func TestImm8Values(t *testing.T) {
	for _, c := range []struct {
		name string
		ebx  uint32 // EBX before the instruction
		code []byte
		want uint32
	}{
		{"6A push -4; pop ebx", 0, []byte{0x6A, 0xFC, 0x5B}, 0xFFFFFFFC},
		{"6B imul ebx, ebx, -3", 12345, []byte{0x6B, 0xDB, 0xFD}, 0xFFFF6F55},
		{"66 6B imul bx, bx, -3", 0x10002, []byte{0x66, 0x6B, 0xDB, 0xFD}, 0x1FFFA},
		{"80 add bl, -4", 0x105, []byte{0x80, 0xC3, 0xFC}, 0x101},
		{"81 add ebx, -4", 0x105, []byte{0x81, 0xC3, 0xFC, 0xFF, 0xFF, 0xFF}, 0x101},
		{"66 81 add bx, -4", 0x10105, []byte{0x66, 0x81, 0xC3, 0xFC, 0xFF}, 0x10101},
		{"83 add ebx, -4", 0x105, []byte{0x83, 0xC3, 0xFC}, 0x101},
		{"66 83 add bx, -4", 0x10105, []byte{0x66, 0x83, 0xC3, 0xFC}, 0x10101},
		{"83 and ebx, -16", 0x12345677, []byte{0x83, 0xE3, 0xF0}, 0x12345670},
		{"83 cmp ebx, -1; sete bl", 0xFFFFFFFF, []byte{0x83, 0xFB, 0xFF, 0x0F, 0x94, 0xC3}, 0xFFFFFF01},
		{"C0 shl bl, 0xE7 (count 7)", 0x101, []byte{0xC0, 0xE3, 0xE7}, 0x180},
		{"C1 shl ebx, 0xE4 (count 4)", 0x101, []byte{0xC1, 0xE3, 0xE4}, 0x1010},
		{"C6 mov bl, 0xFC", 0x12345678, []byte{0xC6, 0xC3, 0xFC}, 0x123456FC},
		// dec ebx; jnz back to the dec (rel8 -3): counts EBX down to 0.
		{"75 jnz rel8 -3", 5, []byte{0x4B, 0x75, 0xFD}, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			img := image(func(a *x86.Asm) {
				a.MovRegImm(x86.EBX, c.ebx)
				a.Raw(c.code...)
				exitWith(a)
			})
			ref := guest.Load(img)
			if _, err := x86interp.New(ref).Run(1000); err != nil || uint32(ref.Kern.ExitCode) != c.want {
				t.Errorf("reference interpreter: EBX %#x (%v), want %#x", uint32(ref.Kern.ExitCode), err, c.want)
			}
			for _, opts := range []Options{{Optimize: true}, {}} {
				p, err := runDBT(t, img, opts, nil, 1000)
				if err != nil || uint32(p.Kern.ExitCode) != c.want {
					t.Errorf("translator %+v: EBX %#x (%v), want %#x", opts, uint32(p.Kern.ExitCode), err, c.want)
				}
			}
		})
	}
	// 0x82, the 32-bit-mode alias of 0x80, is not decoded: assemblers
	// do not emit it.
	if in, err := x86.Decode([]byte{0x82, 0xC3, 0xFC}, 0); err == nil {
		t.Errorf("0x82 decoded as %v", in)
	}
}
