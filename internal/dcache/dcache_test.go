package dcache

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestBankAccessAndFlush(t *testing.T) {
	b := NewBank(1024, 2, 32)
	miss, wb := b.Access(0x100, true)
	if !miss || wb {
		t.Errorf("cold access: miss=%v wb=%v", miss, wb)
	}
	miss, _ = b.Access(0x100, false)
	if miss {
		t.Error("warm access missed")
	}
	if b.Requests != 2 || b.Misses != 1 {
		t.Errorf("counters: %d/%d", b.Requests, b.Misses)
	}
	if d := b.Flush(); d != 1 {
		t.Errorf("flush wrote back %d lines, want 1", d)
	}
	if b.Flushes != 1 || b.Writeback != 1 {
		t.Errorf("flush counters: %d/%d", b.Flushes, b.Writeback)
	}
}

func TestBankForInterleaving(t *testing.T) {
	// Consecutive lines round-robin across banks.
	for i := 0; i < 16; i++ {
		addr := uint32(i * 32)
		want := i % 4
		if got := BankFor(addr, 32, 4); got != want {
			t.Errorf("BankFor(%#x) = %d, want %d", addr, got, want)
		}
	}
	// Single bank: always 0.
	if BankFor(0x12345678, 32, 1) != 0 {
		t.Error("single bank must be 0")
	}
}

func TestLocalAddrDensity(t *testing.T) {
	// The bank-local addresses of one bank's lines must be contiguous
	// lines (so every set of the bank cache is usable).
	n := 4
	var locals []uint32
	for i := 0; i < 64; i++ {
		addr := uint32(i * 32)
		if BankFor(addr, 32, n) == 2 {
			locals = append(locals, LocalAddr(addr, 32, n))
		}
	}
	for i := 1; i < len(locals); i++ {
		if locals[i]-locals[i-1] != 32 {
			t.Fatalf("bank-local lines not contiguous: %#x -> %#x", locals[i-1], locals[i])
		}
	}
	// Offsets within the line survive.
	if LocalAddr(0x47, 32, 4)&31 != 0x7 {
		t.Error("line offset lost")
	}
	if LocalAddr(0x47, 32, 1) != 0x47 {
		t.Error("single-bank LocalAddr must be identity")
	}
}

func TestBankWorkingSetCapacity(t *testing.T) {
	// A working set equal to bank capacity, addressed through the
	// interleave mapping, must fit (this was the calibration bug:
	// without LocalAddr only 1/4 of the sets were used).
	bank := NewBank(32*1024, 4, 32)
	const banks = 4
	var touched int
	for addr := uint32(0); addr < 128*1024; addr += 32 {
		if BankFor(addr, 32, banks) != 0 {
			continue
		}
		bank.Access(LocalAddr(addr, 32, banks), false)
		touched++
	}
	// Second pass: everything must hit.
	missBefore := bank.Misses
	for addr := uint32(0); addr < 128*1024; addr += 32 {
		if BankFor(addr, 32, banks) != 0 {
			continue
		}
		bank.Access(LocalAddr(addr, 32, banks), false)
	}
	if bank.Misses != missBefore {
		t.Errorf("capacity-fit working set missed %d times on the second pass",
			bank.Misses-missBefore)
	}
	if touched != 1024 {
		t.Errorf("touched %d lines, want 1024", touched)
	}
}

// TestCacheResetEqualsNew: after random requests and a flush, Reset
// leaves a bank equal to a new one — its cache's lines, LRU stamps and
// counters included — so a worker tile that keeps its bank across the
// guests of a slot starts each as if it had built it.
func TestCacheResetEqualsNew(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	b := NewBank(8192, 2, 32)
	for i := 0; i < 4000; i++ {
		b.Access(uint32(r.Intn(1<<17)), r.Intn(3) == 0)
	}
	b.Flush()
	for i := 0; i < 400; i++ {
		b.Access(uint32(r.Intn(1<<17)), r.Intn(2) == 0)
	}
	if b.Writeback == 0 || b.Cache.DirtyLines() == 0 {
		t.Fatal("the traffic left nothing to reset")
	}
	b.Reset()
	if want := NewBank(8192, 2, 32); !reflect.DeepEqual(b, want) {
		t.Fatalf("reset bank %+v, new bank %+v", *b, *want)
	}
}
