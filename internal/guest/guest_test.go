package guest

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"tilevm/internal/x86"
)

func TestMemoryReadWriteRoundTrip(t *testing.T) {
	m := NewMemory()
	m.Write32(0x1000, 0xdeadbeef)
	if got := m.Read32(0x1000); got != 0xdeadbeef {
		t.Errorf("Read32 = %#x", got)
	}
	if got := m.Read8(0x1000); got != 0xef {
		t.Errorf("little-endian low byte = %#x", got)
	}
	if got := m.Read16(0x1002); got != 0xdead {
		t.Errorf("high half = %#x", got)
	}
}

func TestMemoryUnmappedReadsZero(t *testing.T) {
	m := NewMemory()
	if m.Read32(0x5000_0000) != 0 || m.Read8(0xffff_fff0) != 0 {
		t.Error("unmapped memory should read zero")
	}
}

func TestMemoryUnalignedAndPageCrossing(t *testing.T) {
	m := NewMemory()
	// Cross a 64KB page boundary.
	addr := uint32(0x1_0000 - 2)
	m.Write32(addr, 0x11223344)
	if got := m.Read32(addr); got != 0x11223344 {
		t.Errorf("page-crossing Read32 = %#x", got)
	}
	m.Write16(0x1_FFFF, 0xaabb)
	if got := m.Read16(0x1_FFFF); got != 0xaabb {
		t.Errorf("page-crossing Read16 = %#x", got)
	}
}

// TestMemoryBulkReads checks ReadBytes and CodeWindow against Read8,
// byte by byte, where the page-wise copy and the in-place window have
// their edges: a page's last byte, a mapped page followed by an
// unmapped one, a window wholly unmapped, and the wrap at 4 GB.
func TestMemoryBulkReads(t *testing.T) {
	m := NewMemory()
	for _, base := range []uint32{0x1_0000, 0x3_0000, 0xFFFF_0000, 0} { // 0x2_0000 stays unmapped
		for i := uint32(0); i < pageSize; i += 251 {
			m.Write8(base+i, uint8(i*7+base>>16+1))
		}
		m.Write8(base+pageSize-1, 0xEE)
	}
	m.Write8(0x1_0000+pageSize-1, 0xA5)
	for _, tc := range []struct {
		name string
		addr uint32
		n    int
	}{
		{"inside a page", 0x1_0100, 19},
		{"ending at a page's last byte", 0x2_0000 - 19, 19},
		{"a page's last byte alone", 0x2_0000 - 1, 1},
		{"mapped into unmapped", 0x2_0000 - 5, 19},
		{"unmapped into mapped", 0x3_0000 - 5, 19},
		{"wholly unmapped", 0x2_8000, 19},
		{"wrapping at 4 GB", 0xFFFF_FFF0, 19 + 16},
		{"over a whole unmapped page", 0x2_0000 - 3, pageSize + 6},
		{"empty", 0x1_0000, 0},
	} {
		want := make([]byte, tc.n)
		for i := range want {
			want[i] = m.Read8(tc.addr + uint32(i))
		}
		if got := m.ReadBytes(tc.addr, tc.n); !bytes.Equal(got, want) {
			t.Errorf("ReadBytes %s (%#x+%d) = %x, want %x", tc.name, tc.addr, tc.n, got, want)
		}
		got := m.CodeWindow(tc.addr, tc.n)
		if !bytes.Equal(got, want) {
			t.Errorf("CodeWindow %s (%#x+%d) = %x, want %x", tc.name, tc.addr, tc.n, got, want)
		}
		if cap(got) != tc.n {
			t.Errorf("CodeWindow %s: cap %d, want it clipped to %d", tc.name, cap(got), tc.n)
		}
	}
	if got := m.ReadBytes(0x2_0000-5, 19); got[4] != 0xA5 || !bytes.Equal(got[5:], make([]byte, 14)) {
		t.Errorf("mapped into unmapped = %x, want the page's tail then zeros", got)
	}
	if m.lookup(2<<pageShift) != nil {
		t.Error("a read mapped the unmapped page")
	}
}

// TestWriteBytesMatchesByteLoop checks the page-wise WriteBytes against
// Write8 byte by byte: the same contents, the same pages mapped, and the
// same write generations, so Capture and Pristine cannot tell the two
// apart. Each case runs on a fresh image and again after Seal.
func TestWriteBytesMatchesByteLoop(t *testing.T) {
	data := make([]byte, 3*pageSize+77)
	for i := range data {
		data[i] = uint8(i*13 + 5)
	}
	zeros := make([]byte, 300)
	for _, tc := range []struct {
		name string
		addr uint32
		data []byte
	}{
		{"inside a page", 0x1_0100, data[:19]},
		{"ending at a page's last byte", 0x2_0000 - 19, data[:19]},
		{"across a 64 KB boundary", 0x2_0000 - 5, data[:19]},
		{"over whole pages", 0x2_0000 - 3, data},
		{"zeros across a boundary", 0x5_0000 - 100, zeros},
		{"wrapping at 4 GB", 0xFFFF_FFF0, data[:40]},
		{"empty", 0x1_0000, nil},
	} {
		for _, sealed := range []bool{false, true} {
			want, got := NewMemory(), NewMemory()
			for _, m := range []*Memory{want, got} {
				m.Write8(0x2_0010, 0xAB) // a page mapped before the write
				if sealed {
					m.Seal()
				}
			}
			for i, b := range tc.data {
				want.Write8(tc.addr+uint32(i), b)
			}
			got.WriteBytes(tc.addr, tc.data)
			for idx := uint32(0); idx < numPages; idx++ {
				w, g := want.lookup(idx<<pageShift), got.lookup(idx<<pageShift)
				if (w == nil) != (g == nil) || w != nil && *w != *g {
					t.Errorf("%s (sealed=%v): page %#x differs", tc.name, sealed, idx)
				}
				if want.pageGen(idx) != got.pageGen(idx) {
					t.Errorf("%s (sealed=%v): page %#x write generation %d, byte loop %d",
						tc.name, sealed, idx, got.pageGen(idx), want.pageGen(idx))
				}
			}
			if want.gen != got.gen || want.sealGen != got.sealGen {
				t.Errorf("%s (sealed=%v): generations differ", tc.name, sealed)
			}
			for _, r := range []uint32{0x1_0000, 0x2_0000, 0x5_0000, 0xFFFF_0000, 0} {
				if w, g := want.Pristine(r, pageSize), got.Pristine(r, pageSize); w != g {
					t.Errorf("%s (sealed=%v): Pristine(%#x) = %v, byte loop %v", tc.name, sealed, r, g, w)
				}
			}
		}
	}
}

// TestPristine: Load seals the address space; from then on a range is
// pristine until a page it touches is written — at page granularity,
// whatever is written — and a restored memory is not pristine anywhere.
func TestPristine(t *testing.T) {
	if NewMemory().Pristine(0, 1) {
		t.Error("a memory nothing was loaded into reports a pristine range")
	}
	img := &Image{Entry: DefaultCodeBase, CodeBase: DefaultCodeBase, Code: []byte{0x90, 0xC3}}
	m := Load(img).Mem
	const page = 1 << 16
	for _, r := range []struct {
		addr uint32
		n    int
	}{{DefaultCodeBase, 2}, {DefaultCodeBase, 3 * page}, {0x7000_0000, 484}, {0xFFFF_FFF0, 64}, {DefaultStackTop - 12, 12}, {5, 0}} {
		if !m.Pristine(r.addr, r.n) {
			t.Errorf("freshly loaded: [%#x, +%d) not pristine", r.addr, r.n)
		}
	}

	snap := m.Capture(nil) // a checkpoint is not a write
	if !m.Pristine(DefaultCodeBase, 2) {
		t.Error("Capture made the code page dirty")
	}
	const written = 0x0806_0000             // a page boundary
	m.Write8(written+7, m.Read8(written+7)) // same value: still a write
	for _, r := range []struct {
		addr uint32
		n    int
		want bool
	}{
		{written - page, page, true},
		{written - page, page + 1, false},
		{written + 100, 1, false},
		{written + page, 8, true},
		{written - 10, 3 * page, false},
		{DefaultCodeBase, 2, true},
	} {
		if got := m.Pristine(r.addr, r.n); got != r.want {
			t.Errorf("after a write to page %#x: Pristine(%#x, %d) = %v, want %v", written, r.addr, r.n, got, r.want)
		}
	}
	m.Write8(3, 1)
	if m.Pristine(0xFFFF_FFF0, 64) {
		t.Error("a range wrapping onto a written page 0 is pristine")
	}

	m.Restore(snap)
	if m.Pristine(DefaultCodeBase, 2) || m.Pristine(0x7000_0000, 1) {
		t.Error("a restored memory reports a pristine range")
	}
}

// TestCaptureAfterSeal: a page written after a capture is copied by the
// next incremental capture even when a Seal came in between. Seal starts
// a generation too, and when it shared Capture's, the write looked older
// than the last capture and the stale copy was kept.
func TestCaptureAfterSeal(t *testing.T) {
	const addr = 0x0806_0010
	m := NewMemory()
	m.Write8(addr, 1)
	a := m.Capture(nil)
	m.Write8(addr, 2)
	m.Seal()
	b := m.Capture(a)
	if got := b.Pages[addr>>pageShift][addr&(pageSize-1)]; got != 2 {
		t.Fatalf("captured byte %d after a write, a seal and an incremental capture; memory holds %d", got, m.Read8(addr))
	}
	if a.Pages[addr>>pageShift][addr&(pageSize-1)] != 1 {
		t.Fatal("the incremental capture wrote into the earlier snapshot")
	}
}

// TestCodeWindowIsAView documents what CodeWindow returns when the
// window lies in one mapped page: the page itself, so a later write
// shows through. Nobody may rely on either behaviour — x86.Decode
// retains nothing of the window and the translator decodes it before
// the guest next runs, which is why self-modifying-code detection does
// not depend on it — but a window handed out across a boundary is a
// copy and stays as it was.
func TestCodeWindowIsAView(t *testing.T) {
	m := NewMemory()
	m.Write8(0x1_0010, 0x90)
	m.Write8(0x2_0000, 0x90) // maps the next page
	inPage := m.CodeWindow(0x1_0010, 19)
	across := m.CodeWindow(0x2_0000-4, 19)
	m.Write8(0x1_0011, 0xC3)
	m.Write8(0x2_0001, 0xC3)
	if inPage[1] != 0xC3 {
		t.Errorf("in-page window did not see the write: %x", inPage)
	}
	if across[5] != 0 {
		t.Errorf("copied window changed under a write: %x", across)
	}
	// Appending to a window must not reach guest memory.
	_ = append(inPage, 0xFF)
	if got := m.Read8(0x1_0010 + 19); got != 0 {
		t.Errorf("append through a window wrote guest memory: %#x", got)
	}
}

func TestMemoryPropertyRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := NewMemory()
		type w struct {
			addr uint32
			val  uint32
			n    uint8
		}
		var writes []w
		for i := 0; i < 50; i++ {
			sizes := []uint8{1, 2, 4}
			// Use well-separated addresses so writes don't overlap.
			ww := w{uint32(i) * 16, r.Uint32(), sizes[r.Intn(3)]}
			m.WriteN(ww.addr, ww.val, ww.n)
			writes = append(writes, ww)
		}
		for _, ww := range writes {
			if m.ReadN(ww.addr, ww.n) != ww.val&x86.SizeMask(ww.n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCPUSubRegisters(t *testing.T) {
	var c CPU
	c.SetReg(x86.EAX, 0x11223344)
	if c.Reg8(0) != 0x44 { // AL
		t.Errorf("AL = %#x", c.Reg8(0))
	}
	if c.Reg8(4) != 0x33 { // AH
		t.Errorf("AH = %#x", c.Reg8(4))
	}
	c.SetReg8(4, 0xff) // AH
	if c.Reg(x86.EAX) != 0x1122ff44 {
		t.Errorf("EAX after AH write = %#x", c.Reg(x86.EAX))
	}
	c.SetReg16(x86.EAX, 0xbeef)
	if c.Reg(x86.EAX) != 0x1122beef {
		t.Errorf("EAX after AX write = %#x", c.Reg(x86.EAX))
	}
}

func TestLoadSetsUpProcess(t *testing.T) {
	img := &Image{
		Entry:    DefaultCodeBase,
		CodeBase: DefaultCodeBase,
		Code:     []byte{0x90, 0xC3},
		Segments: []Segment{{Addr: 0x0a000000, Data: []byte{1, 2, 3}}},
	}
	p := Load(img)
	if p.PC != DefaultCodeBase {
		t.Errorf("PC = %#x", p.PC)
	}
	if p.Mem.Read8(DefaultCodeBase) != 0x90 {
		t.Error("code not loaded")
	}
	if p.Mem.Read8(0x0a000002) != 3 {
		t.Error("segment not loaded")
	}
	sp := p.Reg(x86.ESP)
	if sp == 0 || sp >= DefaultStackTop {
		t.Errorf("ESP = %#x", sp)
	}
	if p.Mem.Read32(sp) != 0 { // argc
		t.Error("argc != 0")
	}
}

func TestKernelExit(t *testing.T) {
	k := NewKernel(DefaultHeapBase)
	m := NewMemory()
	var r [8]uint32
	r[x86.EAX] = 1
	r[x86.EBX] = 7
	k.Syscall(m, &r)
	if !k.Exited || k.ExitCode != 7 {
		t.Errorf("exit: %v %d", k.Exited, k.ExitCode)
	}
}

func TestKernelWriteAndRead(t *testing.T) {
	k := NewKernel(DefaultHeapBase)
	k.SetStdin([]byte("input"))
	m := NewMemory()
	m.WriteBytes(0x2000, []byte("hello"))
	var r [8]uint32
	r[x86.EAX], r[x86.EBX], r[x86.ECX], r[x86.EDX] = 4, 1, 0x2000, 5
	k.Syscall(m, &r)
	if r[x86.EAX] != 5 || k.Stdout.String() != "hello" {
		t.Errorf("write: ret=%d out=%q", r[x86.EAX], k.Stdout.String())
	}
	r[x86.EAX], r[x86.EBX], r[x86.ECX], r[x86.EDX] = 3, 0, 0x3000, 10
	k.Syscall(m, &r)
	if r[x86.EAX] != 5 || string(m.ReadBytes(0x3000, 5)) != "input" {
		t.Errorf("read: ret=%d", r[x86.EAX])
	}
}

func TestKernelBrkAndMmap(t *testing.T) {
	k := NewKernel(0x0a000000)
	m := NewMemory()
	var r [8]uint32
	r[x86.EAX], r[x86.EBX] = 45, 0
	k.Syscall(m, &r)
	if r[x86.EAX] != 0x0a000000 {
		t.Errorf("brk(0) = %#x", r[x86.EAX])
	}
	r[x86.EAX], r[x86.EBX] = 45, 0x0a010000
	k.Syscall(m, &r)
	if r[x86.EAX] != 0x0a010000 {
		t.Errorf("brk(grow) = %#x", r[x86.EAX])
	}
	// brk shrink is ignored (stays).
	r[x86.EAX], r[x86.EBX] = 45, 0x0a000000
	k.Syscall(m, &r)
	if r[x86.EAX] != 0x0a010000 {
		t.Errorf("brk(shrink) = %#x", r[x86.EAX])
	}
	r[x86.EAX], r[x86.ECX] = 192, 0x5000 // mmap2 length
	k.Syscall(m, &r)
	first := r[x86.EAX]
	r[x86.EAX], r[x86.ECX] = 192, 0x1000
	k.Syscall(m, &r)
	if r[x86.EAX] <= first {
		t.Error("mmap regions overlap")
	}
}

func TestKernelUnknownSyscall(t *testing.T) {
	k := NewKernel(DefaultHeapBase)
	m := NewMemory()
	var r [8]uint32
	r[x86.EAX] = 9999
	k.Syscall(m, &r)
	if int32(r[x86.EAX]) != -38 {
		t.Errorf("unknown syscall = %d, want -38 (ENOSYS)", int32(r[x86.EAX]))
	}
}
