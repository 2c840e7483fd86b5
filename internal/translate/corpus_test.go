package translate

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"tilevm/internal/guest"
	"tilevm/internal/rawexec"
	"tilevm/internal/rawisa"
	"tilevm/internal/workload"
)

// corpusDigest hashes everything the code caches, the execution engine
// and the speculative walker consume from each block of a corpus: the
// finalized host code, its chain sites, and the control-flow metadata
// down to the static branch prediction.
//
// The code is hashed decoded, one instruction at a time, as it was
// before it was kept in words: each instruction as the (Imm, Target)
// pair it had before a guest PC moved into Imm, a branch offset in
// instructions, the instruction count where the word count would be,
// and the chain sites as the (instruction offset, guest PC) list
// Results carried beside their code, so the columns recorded before
// those changes still hold.
func corpusDigest(t *testing.T, blocks []*Result) string {
	h := sha256.New()
	put := func(vs ...uint32) {
		var buf [4]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint32(buf[:], v)
			h.Write(buf[:])
		}
	}
	for _, r := range blocks {
		back := uint32(0)
		if r.BackwardTaken {
			back = 1
		}
		code, err := rawisa.DecodeAll(r.Code)
		if err != nil {
			t.Fatalf("block %#x: %v", r.GuestAddr, err)
		}
		// word[i] is the word offset of instruction i, at its inverse.
		word := make([]int32, len(code)+1)
		at := map[int32]int32{}
		for i, in := range code {
			at[word[i]] = int32(i)
			word[i+1] = word[i] + int32(in.Op.Words())
		}
		at[word[len(code)]] = int32(len(code))
		put(r.GuestAddr, uint32(r.Kind), r.Target, r.FallTarget, back,
			uint32(r.NumGuest), r.GuestLen, uint32(r.CodeBytes()), uint32(len(code)))
		var chains []uint32
		for off, in := range code {
			imm, target := uint32(in.Imm), uint32(0)
			switch in.Op {
			case rawisa.EXITI, rawisa.CHAIN, rawisa.ASSIST:
				imm, target = 0, in.GuestPC()
			case rawisa.BEQ, rawisa.BNE, rawisa.BLEZ, rawisa.BGTZ, rawisa.BLTZ, rawisa.BGEZ:
				to, ok := at[word[off+1]+in.Imm]
				if !ok {
					t.Fatalf("block %#x: branch at %d into the middle of an instruction", r.GuestAddr, off)
				}
				imm = uint32(to - int32(off+1))
			case rawisa.J, rawisa.JAL:
				t.Fatalf("block %#x: the translator emitted a jump", r.GuestAddr)
			}
			put(uint32(in.Op), uint32(in.Rd), uint32(in.Rs), uint32(in.Rt), imm, target)
			if in.Op == rawisa.CHAIN {
				chains = append(chains, uint32(off), target)
			}
		}
		put(uint32(len(chains) / 2))
		put(chains...)
	}
	return fmt.Sprintf("%d:%x", len(blocks), h.Sum(nil)[:8])
}

// corpusGolden pins the translator's output over every statically
// reachable block of all 11 workload profiles, with the optimizer on
// and off ("blocks:first 8 bytes of SHA-256"). The columns were
// recorded on the commit before the map-free back end (ISSUE 12) and
// re-recorded, with BackwardTaken and the chain sites added to the
// hash, on the commit before the
// translator scratch (ISSUE 20), and are unchanged by it: a translator
// change that is meant to be byte-identical must leave these alone, and
// one that is meant to change the emitted code must say so by updating
// them.
var corpusGolden = map[string][2]string{
	"164.gzip":    {"281:f61c397ac03b8295", "281:757ca6782ef0248d"},
	"175.vpr":     {"2421:846965756d5000aa", "2421:cf67f87f2df455ba"},
	"176.gcc":     {"6063:c683ca73798cf502", "6063:ae5dfea67f0141f1"},
	"181.mcf":     {"165:6999333d7e87e2c8", "165:148aefb8035843a5"},
	"186.crafty":  {"4733:ee0eec535a3bc2a0", "4733:ed77da73a9f58d77"},
	"197.parser":  {"561:6acfeef64945b3c5", "561:e9269af2c4ce2f4a"},
	"253.perlbmk": {"3097:46e7b9f948fcf53e", "3097:9390272aaeae0f5b"},
	"254.gap":     {"2187:382f1ea46488fd06", "2187:6d952aad32bbb2d0"},
	"255.vortex":  {"6833:63a7942ec256ca39", "6833:376dc3cdcc6419bd"},
	"256.bzip2":   {"256:57853881974e43a8", "256:abc96266ddd8efa8"},
	"300.twolf":   {"1747:53892837613a9388", "1747:e9a4cded7372323b"},
}

// TestTranslateCorpusDigest walks each profile with one long-lived
// Translator per option set and holds every Result until the hash:
// anything a Result still shared with translator-owned storage would
// have been overwritten by the time it is hashed.
func TestTranslateCorpusDigest(t *testing.T) {
	profiles := workload.Profiles()
	if len(profiles) != len(corpusGolden) {
		t.Errorf("%d profiles, %d golden entries", len(profiles), len(corpusGolden))
	}
	check := func(name, column, got, want string) {
		if got != want {
			t.Errorf("%s %s: digest %q, golden %q", name, column, got, want)
		}
	}
	for _, p := range profiles {
		img := p.Build()
		mem := guest.Load(img).Mem
		golden := corpusGolden[p.Name]

		optimized := New(Options{Optimize: true}).Reachable(mem, img.Entry)
		plain := New(Options{}).Reachable(mem, img.Entry)

		check(p.Name, "optimize=true", corpusDigest(t, optimized), golden[0])
		check(p.Name, "optimize=false", corpusDigest(t, plain), golden[1])
	}
}

// TestTranslateAllocsPerBlock pins the allocation count of one
// translation, averaged over the 176.gcc corpus. Allocation counts are
// deterministic, so the ceiling sits one above the measured value (2.0;
// 3.9 when a Result carried its code twice, 30 before the translator
// had a scratch): a per-call buffer creeping back in fails here, in
// tier-1, not only in the bench gate. What is left is what a Result
// keeps: its Code, made by codegen's Finalize once the block has fit
// the registers, and the Result itself, made in newResult.
func TestTranslateAllocsPerBlock(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	p, _ := workload.ByName("176.gcc")
	img := p.Build()
	mem := guest.Load(img).Mem
	tr := New(Options{Optimize: true})
	var addrs []uint32
	for _, r := range tr.Reachable(mem, img.Entry) {
		addrs = append(addrs, r.GuestAddr)
	}
	got := testing.AllocsPerRun(1, func() {
		for _, a := range addrs {
			tr.TranslateFinal(mem, a)
		}
	}) / float64(len(addrs))
	if got > 2.9 {
		t.Errorf("%.1f allocs/block, ceiling 2.9", got)
	} else {
		t.Logf("%.1f allocs/block over %d blocks", got, len(addrs))
	}
}

// traceEnv is a rawexec.Env with no guest behind it: loads return a
// function of the address, and every call is hashed with the clock it
// was made at, so two executions are equal exactly when they issued the
// same external operations at the same cycles.
type traceEnv struct {
	clk *rawexec.CountClock
	h   uint64
}

func (e *traceEnv) note(vs ...uint64) {
	for _, v := range append(vs, e.clk.T) {
		e.h = (e.h ^ v) * 0x100000001b3
	}
}

func (e *traceEnv) GuestLoad(addr uint32, size uint8, signed bool) (uint32, uint64) {
	e.note(1, uint64(addr), uint64(size))
	e.clk.Tick(4)
	v := addr * 0x9e3779b1
	if signed {
		v = ^v
	}
	return v, e.clk.T + 2
}

func (e *traceEnv) GuestStore(addr, val uint32, size uint8) {
	e.note(2, uint64(addr), uint64(val), uint64(size))
	e.clk.Tick(1)
}

func (e *traceEnv) Syscall(cpu *rawexec.CPU) {
	e.note(3, uint64(cpu.R[rawisa.RegEAX]))
	cpu.R[rawisa.RegEAX] ^= 0x55
}

func (e *traceEnv) Assist(guestPC uint32, cpu *rawexec.CPU) error {
	e.note(4, uint64(guestPC))
	cpu.R[rawisa.RegECX]++
	return nil
}

func (e *traceEnv) Stopped() bool           { return false }
func (e *traceEnv) Interrupted(uint64) bool { return false }

// TestPredecodedBlockMatchesExec runs every block of the digest corpus
// three ways from the same register state — through rawexec.Exec on its
// Code in place, and from its Code appended to a program at two
// different offsets, as an L1 fill lays it out — and requires the same
// registers, exit, cycle count and external-operation trace from all
// three. This is what lets an L1 fill be a copy: the block's meaning
// does not depend on where it lands.
func TestPredecodedBlockMatchesExec(t *testing.T) {
	type outcome struct {
		cpu   rawexec.CPU
		exit  rawexec.Exit
		fault string
		at    int // fault index, relative to the block
		clock uint64
		trace uint64
	}
	const budget = 4096 // a block may loop on what traceEnv feeds it
	run := func(exec func(*rawexec.CPU, rawexec.Clock, rawexec.Env) (rawexec.Exit, error), base int, seed uint32) outcome {
		clk := &rawexec.CountClock{T: 1000}
		env := &traceEnv{clk: clk}
		o := outcome{}
		for r := 1; r < rawisa.NumRegs; r++ {
			seed = seed*1664525 + 1013904223
			o.cpu.R[r] = seed >> (seed & 15) // mixed magnitudes: loop counts, addresses
		}
		var err error
		o.exit, err = exec(&o.cpu, clk, env)
		if f, ok := err.(*rawexec.Fault); ok {
			o.fault, o.at = f.Reason, f.Index-base
		} else if err != nil {
			t.Fatal(err)
		}
		o.clock, o.trace = clk.T, env.h
		return o
	}
	blocks, chains := 0, 0
	for _, p := range workload.Profiles() {
		img := p.Build()
		mem := guest.Load(img).Mem
		for _, opts := range []Options{{Optimize: true}, {}} {
			var prog rawexec.Program
			for i, r := range New(opts).Reachable(mem, img.Entry) {
				code := slices.Clone(r.Code)
				if i%64 == 0 {
					prog.Reset() // so the first offset is sometimes 0
				}
				at1 := prog.Append(r.Code)
				at2 := prog.Append(r.Code)
				seed := r.GuestAddr
				want := run(func(cpu *rawexec.CPU, clk rawexec.Clock, env rawexec.Env) (rawexec.Exit, error) {
					return rawexec.Exec(cpu, r.Code, 0, clk, env, budget)
				}, 0, seed)
				for _, at := range []int{at1, at2} {
					got := run(func(cpu *rawexec.CPU, clk rawexec.Clock, env rawexec.Env) (rawexec.Exit, error) {
						return prog.Exec(cpu, at, clk, env, budget)
					}, at, seed)
					if got != want {
						t.Fatalf("%s optimize=%v block %#x at offset %d:\n got %+v\nwant %+v",
							p.Name, opts.Optimize, r.GuestAddr, at, got, want)
					}
				}
				if !slices.Equal(code, r.Code) {
					t.Fatalf("%s %#x: running the block wrote to its Code", p.Name, r.GuestAddr)
				}
				blocks++
				for off := 0; off < len(r.Code); off += r.Code[off].Op().Words() {
					if r.Code[off].Op() == rawisa.CHAIN {
						chains++
					}
				}
			}
		}
	}
	if blocks == 0 || chains == 0 {
		t.Errorf("%d blocks, %d chain sites exercised", blocks, chains)
	}
}
