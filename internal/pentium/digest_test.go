package pentium

import (
	"fmt"
	"hash/fnv"
	"testing"

	"tilevm/internal/guest"
	"tilevm/internal/workload"
	"tilevm/internal/x86interp"
)

// referenceGolden pins the reference run of every workload profile at
// seed offsets 0 and 1 (the offset is added to the profile's seed, as
// tilebench's --seed does). The first column is every pentium.Result
// field, with stdout as an FNV-1a hash; the second is the interpreter's
// final architectural state: EAX..EDI, EIP, EFLAGS and Memory.Hash().
// Slowdown divides by Cycles, and every differential test compares
// against the interpreter, so a change to the interpreter's internals
// must leave this table alone.
var referenceGolden = map[string][2]string{
	"164.gzip/0": {"cycles=238154 insts=181253 mem=90834 l1miss=153 l2miss=153 exit=108 stdout=cbf29ce484222325",
		"regs=[00000000 64645f28 001621e0 0000006c befffff4 00000000 0a000000 0a001000] eip=0804833a eflags=00000004 mem=3e9de52e7052e85a"},
	"175.vpr/0": {"cycles=121300 insts=91050 mem=25717 l1miss=586 l2miss=487 exit=95 stdout=cbf29ce484222325",
		"regs=[00000000 99e09000 00000088 0000005f befffff4 00000000 0a000000 0a001000] eip=0804930d eflags=00000004 mem=5cbd935ab081dd5b"},
	"176.gcc/0": {"cycles=234132 insts=200227 mem=50703 l1miss=953 l2miss=536 exit=81 stdout=cbf29ce484222325",
		"regs=[00000000 ff9ec372 ff1d0770 00000051 befffff4 00000000 0a000000 0a001000] eip=08049fac eflags=00000000 mem=73f706f1dd66448f"},
	"181.mcf/0": {"cycles=380537 insts=178459 mem=84780 l1miss=19225 l2miss=1640 exit=10 stdout=cbf29ce484222325",
		"regs=[00000000 00000000 00000000 0000000a befffff4 00000000 0a000000 0a0159c0] eip=08048146 eflags=00000004 mem=d403a2a1029ecf8a"},
	"186.crafty/0": {"cycles=233550 insts=200968 mem=50853 l1miss=722 l2miss=529 exit=73 stdout=cbf29ce484222325",
		"regs=[00000000 35e06a70 d6ca4b40 00000049 befffff4 00000000 0a000000 0a001000] eip=08049b8f eflags=00000000 mem=217a9c80f1bddddb"},
	"197.parser/0": {"cycles=196452 insts=104445 mem=41710 l1miss=9047 l2miss=768 exit=67 stdout=cbf29ce484222325",
		"regs=[00000000 9c9d4243 00000000 00000043 befffff4 00000000 0a000000 0a004d80] eip=08048402 eflags=00000000 mem=17a64a5c12b8b619"},
	"253.perlbmk/0": {"cycles=162271 insts=127151 mem=37163 l1miss=654 l2miss=518 exit=73 stdout=cbf29ce484222325",
		"regs=[00000000 99da0575 dbf269a9 00000049 befffff4 00000000 0a000000 0a001000] eip=080497ae eflags=00000000 mem=ea596a14e73de477"},
	"254.gap/0": {"cycles=237951 insts=165578 mem=51929 l1miss=4587 l2miss=831 exit=5 stdout=cbf29ce484222325",
		"regs=[00000000 00000096 00000000 00000005 befffff4 00000000 0a000000 0a001000] eip=08049001 eflags=00000004 mem=98d52c711ec396ca"},
	"255.vortex/0": {"cycles=261110 insts=218937 mem=63001 l1miss=965 l2miss=541 exit=44 stdout=cbf29ce484222325",
		"regs=[00000000 44333c05 e64d1166 0000002c befffff4 00000000 0a000000 0a001000] eip=0804a150 eflags=00000000 mem=4c2e387a62c5a3f6"},
	"256.bzip2/0": {"cycles=236734 insts=167989 mem=96600 l1miss=262 l2miss=207 exit=33 stdout=cbf29ce484222325",
		"regs=[00000000 00000000 5471b8a1 00000021 befffff4 00000000 0a000000 0a001000] eip=08048272 eflags=00000004 mem=9dec739d2cddcbc2"},
	"300.twolf/0": {"cycles=306369 insts=168889 mem=60250 l1miss=15784 l2miss=1053 exit=127 stdout=cbf29ce484222325",
		"regs=[00000000 00000000 09f02b8c 0000007f befffff4 00000000 0a000000 0a001280] eip=08048e2a eflags=00000000 mem=5f7abfcb7490768e"},
	"164.gzip/1": {"cycles=237097 insts=182447 mem=88888 l1miss=180 l2miss=150 exit=49 stdout=cbf29ce484222325",
		"regs=[00000000 fac06e50 1e001e00 00000031 befffff4 00000000 0a000000 0a001000] eip=0804833a eflags=00000000 mem=1a9f10b0abe063ad"},
	"175.vpr/1": {"cycles=123758 insts=91396 mem=27478 l1miss=587 l2miss=496 exit=77 stdout=cbf29ce484222325",
		"regs=[00000000 0000abc8 fffffffb 0000004d befffff4 00000000 0a000000 0a001000] eip=080492a1 eflags=00000004 mem=8a3aeb05a7aa99b2"},
	"176.gcc/1": {"cycles=235301 insts=199748 mem=52453 l1miss=891 l2miss=537 exit=103 stdout=cbf29ce484222325",
		"regs=[00000000 00000480 59e6a080 00000067 befffff4 00000000 0a000000 0a001000] eip=08049f85 eflags=00000000 mem=943333d337319030"},
	"181.mcf/1": {"cycles=381888 insts=177511 mem=91500 l1miss=18030 l2miss=1648 exit=61 stdout=cbf29ce484222325",
		"regs=[00000000 00000000 fe50f858 0000003d befffff4 00000000 0a000000 0a012640] eip=08048146 eflags=00000000 mem=02e47acacb3b073d"},
	"186.crafty/1": {"cycles=233228 insts=199459 mem=51515 l1miss=764 l2miss=529 exit=3 stdout=cbf29ce484222325",
		"regs=[00000000 779e0ece 00000000 00000003 befffff4 00000000 0a000000 0a001000] eip=08049bc8 eflags=00000004 mem=dfd2231e1ba87829"},
	"197.parser/1": {"cycles=197300 insts=105219 mem=40282 l1miss=9481 l2miss=765 exit=25 stdout=cbf29ce484222325",
		"regs=[00000000 f18fe560 e92d5c40 00000019 befffff4 00000000 0a000000 0a0088c0] eip=08048402 eflags=00000000 mem=ae315346826099e8"},
	"253.perlbmk/1": {"cycles=161853 insts=126584 mem=37310 l1miss=691 l2miss=512 exit=41 stdout=cbf29ce484222325",
		"regs=[00000000 dad9412e 865e0f80 00000029 befffff4 00000000 0a000000 0a001000] eip=0804975d eflags=00000000 mem=98df46a20d22e812"},
	"254.gap/1": {"cycles=233090 insts=164488 mem=50291 l1miss=4132 l2miss=821 exit=125 stdout=cbf29ce484222325",
		"regs=[00000000 b44013fd db81192d 0000007d befffff4 00000000 0a000000 0a001000] eip=0804902b eflags=00000004 mem=7d7462d7097a8bd1"},
	"255.vortex/1": {"cycles=252640 insts=213640 mem=58522 l1miss=985 l2miss=541 exit=11 stdout=cbf29ce484222325",
		"regs=[00000000 9e409f94 4f631800 0000000b befffff4 00000000 0a000000 0a001000] eip=0804a15c eflags=00000000 mem=626e87143febf038"},
	"256.bzip2/1": {"cycles=241600 insts=173241 mem=98216 l1miss=232 l2miss=193 exit=31 stdout=cbf29ce484222325",
		"regs=[00000000 00000000 00000000 0000001f befffff4 00000000 0a000000 0a001000] eip=08048272 eflags=00000000 mem=e2b29808d8466428"},
	"300.twolf/1": {"cycles=310341 insts=169059 mem=62330 l1miss=16068 l2miss=1065 exit=77 stdout=cbf29ce484222325",
		"regs=[00000000 f65b6f15 03721180 0000004d befffff4 00000000 0a000000 0a009540] eip=08048e2a eflags=00000004 mem=7ca543f595ca3769"},
}

// referenceDigest runs the profile once through pentium.Run and once on
// a bare interpreter, and formats both columns of referenceGolden.
func referenceDigest(p workload.Profile) ([2]string, error) {
	img := p.Build()
	r, err := Run(img, DefaultParams(), 0)
	if err != nil {
		return [2]string{}, err
	}
	out := fnv.New64a()
	out.Write([]byte(r.Stdout))
	res := fmt.Sprintf("cycles=%d insts=%d mem=%d l1miss=%d l2miss=%d exit=%d stdout=%016x",
		r.Cycles, r.Insts, r.MemAccs, r.L1Misses, r.L2Misses, r.ExitCode, out.Sum64())

	proc := guest.Load(img)
	it := x86interp.New(proc)
	if exited, err := it.Run(0); err != nil || !exited {
		return [2]string{}, fmt.Errorf("bare interpreter: exited=%v err=%v", exited, err)
	}
	if it.Steps != r.Insts {
		return [2]string{}, fmt.Errorf("bare interpreter retired %d, pentium.Run %d", it.Steps, r.Insts)
	}
	st := fmt.Sprintf("regs=%08x eip=%08x eflags=%08x mem=%016x",
		proc.R, proc.PC, proc.Flags, proc.Mem.Hash())
	return [2]string{res, st}, nil
}

func TestReferenceDigest(t *testing.T) {
	profiles := workload.Profiles()
	for _, seed := range []int64{0, 1} {
		for _, p := range profiles {
			key := fmt.Sprintf("%s/%d", p.Name, seed)
			p.Seed += seed
			got, err := referenceDigest(p)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			want, ok := referenceGolden[key]
			if !ok {
				t.Errorf("%s: no golden row; got\n\t%q: {%q,\n\t\t%q},", key, key, got[0], got[1])
				continue
			}
			for i, col := range []string{"result", "state"} {
				if got[i] != want[i] {
					t.Errorf("%s %s:\n got %s\nwant %s", key, col, got[i], want[i])
				}
			}
		}
	}
	if n := 2 * len(profiles); len(referenceGolden) != n {
		t.Errorf("%d golden rows, want %d", len(referenceGolden), n)
	}
}
