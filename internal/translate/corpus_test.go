package translate

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
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
// down to the static branch prediction. blocks[i] is the translation
// of addrs[i], or nil where the tier has none (a tier-0 template miss),
// which is hashed as a miss at that address and counted apart.
func corpusDigest(addrs []uint32, blocks []*Result) string {
	h := sha256.New()
	put := func(vs ...uint32) {
		var buf [4]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint32(buf[:], v)
			h.Write(buf[:])
		}
	}
	misses := 0
	for i, r := range blocks {
		if r == nil {
			put(addrs[i], ^uint32(0))
			misses++
			continue
		}
		back := uint32(0)
		if r.BackwardTaken {
			back = 1
		}
		put(r.GuestAddr, uint32(r.Kind), r.Target, r.FallTarget, back,
			uint32(r.NumGuest), r.GuestLen, uint32(r.CodeBytes), uint32(len(r.Code)))
		for _, in := range r.Code {
			put(uint32(in.Op), uint32(in.Rd), uint32(in.Rs), uint32(in.Rt), uint32(in.Imm), in.Target)
		}
		put(uint32(len(r.Chains)))
		for _, c := range r.Chains {
			put(uint32(c.Off), c.Target)
		}
	}
	if misses > 0 {
		return fmt.Sprintf("%d+%d:%x", len(blocks)-misses, misses, h.Sum(nil)[:8])
	}
	return fmt.Sprintf("%d:%x", len(blocks), h.Sum(nil)[:8])
}

// corpusGolden pins the translator's output over every statically
// reachable block of all 11 workload profiles: the optimizing tier with
// the optimizer on and off ("blocks:first 8 bytes of SHA-256"), and the
// template tier over the same addresses ("templated+untemplated:...").
// The first two columns were recorded on the commit before the map-free
// back end (ISSUE 12); all three were re-recorded, with BackwardTaken
// and the chain sites added to the hash, on the commit before the
// translator scratch (ISSUE 20), and are unchanged by it: a translator
// change that is meant to be byte-identical must leave these alone, and
// one that is meant to change the emitted code must say so by updating
// them.
var corpusGolden = map[string][3]string{
	"164.gzip":    {"281:f61c397ac03b8295", "281:757ca6782ef0248d", "196+85:5d7d443dbd347240"},
	"175.vpr":     {"2421:846965756d5000aa", "2421:cf67f87f2df455ba", "1323+1098:7920c3ae969e4094"},
	"176.gcc":     {"6063:c683ca73798cf502", "6063:ae5dfea67f0141f1", "2720+3343:c9c09a022e710127"},
	"181.mcf":     {"165:6999333d7e87e2c8", "165:148aefb8035843a5", "96+69:397b241735a2a78b"},
	"186.crafty":  {"4733:ee0eec535a3bc2a0", "4733:ed77da73a9f58d77", "2252+2481:305954407cd55ef4"},
	"197.parser":  {"561:6acfeef64945b3c5", "561:e9269af2c4ce2f4a", "328+233:9d99efce7102a52e"},
	"253.perlbmk": {"3097:46e7b9f948fcf53e", "3097:9390272aaeae0f5b", "1614+1483:625ef623a77df250"},
	"254.gap":     {"2187:382f1ea46488fd06", "2187:6d952aad32bbb2d0", "1124+1063:d73bd88e20ccbca8"},
	"255.vortex":  {"6833:63a7942ec256ca39", "6833:376dc3cdcc6419bd", "3056+3777:73c5599a530303d9"},
	"256.bzip2":   {"256:57853881974e43a8", "256:abc96266ddd8efa8", "154+102:705d85f2d97ec2f0"},
	"300.twolf":   {"1747:53892837613a9388", "1747:e9a4cded7372323b", "1001+746:604a3b6dc6c01087"},
}

// TestTranslateCorpusDigest walks each profile with one long-lived
// Translator per option set and holds every Result until the hash, the
// template tier's interleaved with the optimizing tier's on the same
// translator: anything a Result still shared with translator-owned
// storage would have been overwritten by the time it is hashed.
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

		tr := New(Options{Optimize: true})
		optimized := tr.Reachable(mem, img.Entry)
		addrs := make([]uint32, len(optimized))
		template := make([]*Result, len(optimized))
		for i, r := range optimized {
			addrs[i] = r.GuestAddr
			res, err := tr.TranslateTemplate(mem, r.GuestAddr)
			if err != nil && !errors.Is(err, ErrUntemplated) {
				t.Fatalf("%s %#x: template tier: %v", p.Name, r.GuestAddr, err)
			}
			template[i] = res // nil on a template miss
		}
		plain := New(Options{}).Reachable(mem, img.Entry)

		check(p.Name, "optimize=true", corpusDigest(addrs, optimized), golden[0])
		check(p.Name, "optimize=false", corpusDigest(nil, plain), golden[1])
		check(p.Name, "tier-0", corpusDigest(addrs, template), golden[2])
	}
}

// TestTranslateAllocsPerBlock pins the allocation count of one
// translation, averaged over the 176.gcc corpus. Allocation counts are
// deterministic, so the ceilings sit one above the measured values (3.9
// optimizing, 3.8 template; 30 and 20 before the translator had a
// scratch): a per-call buffer creeping back in fails here, in tier-1,
// not only in the bench gate. What is left is what a Result keeps, all
// of it made in newResult but the first: its Code, sized to the block
// (by codegen's Finalize, or copied out of the emitter's buffer); the
// header that holds the Result, its Block and the IR block's metadata;
// Pre, the predecoded ops; and Chains, for the eight or nine blocks in ten that
// have a chain site.
func TestTranslateAllocsPerBlock(t *testing.T) {
	p, _ := workload.ByName("176.gcc")
	img := p.Build()
	mem := guest.Load(img).Mem
	tr := New(Options{Optimize: true})
	var addrs, templated []uint32
	for _, r := range tr.Reachable(mem, img.Entry) {
		addrs = append(addrs, r.GuestAddr)
		if _, err := tr.TranslateTemplate(mem, r.GuestAddr); err == nil {
			templated = append(templated, r.GuestAddr)
		}
	}
	perBlock := func(addrs []uint32, step func(CodeReader, uint32) (*Result, error)) float64 {
		return testing.AllocsPerRun(1, func() {
			for _, a := range addrs {
				step(mem, a)
			}
		}) / float64(len(addrs))
	}
	if got := perBlock(addrs, tr.TranslateFinal); got > 4.9 {
		t.Errorf("optimizing tier: %.1f allocs/block, ceiling 4.9", got)
	} else {
		t.Logf("optimizing tier: %.1f allocs/block over %d blocks", got, len(addrs))
	}
	if got := perBlock(templated, tr.TranslateTemplate); got > 4.8 {
		t.Errorf("template tier: %.1f allocs/block, ceiling 4.8", got)
	} else {
		t.Logf("template tier: %.1f allocs/block over %d blocks", got, len(templated))
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

func (e *traceEnv) Stopped() bool     { return false }
func (e *traceEnv) Interrupted() bool { return false }

// TestPredecodedBlockMatchesExec runs every block of the digest corpus
// three ways from the same register state — through the arena-walking
// rawexec.Exec on its Code, and from its predecoded form appended to a
// program at two different offsets — and requires the same registers,
// exit, cycle count and external-operation trace from all three. This
// is what lets an L1 fill be a copy: the block's meaning does not
// depend on where it lands.
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
				if r.Pre.Len() != len(r.Code) {
					t.Fatalf("%s %#x: %d predecoded ops for %d instructions", p.Name, r.GuestAddr, r.Pre.Len(), len(r.Code))
				}
				var sites []ChainSite
				for off, in := range r.Code {
					if in.Op == rawisa.CHAIN {
						sites = append(sites, ChainSite{Off: int32(off), Target: in.Target})
					}
				}
				if !slices.Equal(sites, r.Chains) {
					t.Fatalf("%s %#x: chain sites %+v, code has %+v", p.Name, r.GuestAddr, r.Chains, sites)
				}
				if i%64 == 0 {
					prog.Reset() // so the first offset is sometimes 0
				}
				at1 := prog.Append(&r.Pre)
				at2 := prog.Append(&r.Pre)
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
				blocks++
				chains += len(r.Chains)
			}
		}
	}
	if blocks == 0 || chains == 0 {
		t.Errorf("%d blocks, %d chain sites exercised", blocks, chains)
	}
}
