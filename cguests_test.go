package tilevm_test

import (
	"errors"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"

	"tilevm/internal/core"
	"tilevm/internal/fault"
	"tilevm/internal/guest"
	"tilevm/internal/x86interp"
)

// TestCompiledGuests runs every checked-in compiled probe
// (testdata/cguests, built by `make cguests`) three ways: natively on
// the host CPU, on the reference interpreter, and on the tiled machine.
// All three must print the same stdout and exit with the same code. The
// host CPU is the oracle: the interpreter shares its decoder with the
// translator, so the two agreeing proves nothing about x86 on its own.
func TestCompiledGuests(t *testing.T) {
	// About 3x the longest probe (interp.O0): a decode bug that sends a
	// probe into a loop fails in seconds, not at the default limit.
	const maxSteps, maxCycles = 20_000_000, 200_000_000
	elfs, err := filepath.Glob("testdata/cguests/*.O[02s]")
	if err != nil {
		t.Fatal(err)
	}
	if len(elfs) != 9 {
		t.Fatalf("found %d compiled probes, want 9 (3 programs × -O0/-O2/-Os): %v", len(elfs), elfs)
	}
	for _, path := range elfs {
		t.Run(filepath.Base(path), func(t *testing.T) {
			out, err := exec.Command(path).Output()
			var exit *exec.ExitError
			native := 0
			switch {
			case errors.As(err, &exit):
				native = exit.ExitCode()
			case errors.Is(err, syscall.ENOEXEC):
				t.Skipf("the host cannot exec an i386 ELF: %v", err)
			case err != nil:
				t.Fatal(err)
			}

			img, err := guest.LoadELFFile(path)
			if err != nil {
				t.Fatal(err)
			}
			p := guest.Load(img)
			if exited, err := x86interp.New(p).Run(maxSteps); err != nil || !exited {
				t.Fatalf("interpreter: exited=%v within %d steps, err=%v", exited, maxSteps, err)
			}
			if got := p.Kern.Stdout.String(); got != string(out) || int(p.Kern.ExitCode) != native {
				t.Errorf("interpreter: stdout %q exit %d, native %q exit %d", got, p.Kern.ExitCode, out, native)
			}

			cfg := core.DefaultConfig()
			cfg.MaxCycles = maxCycles
			res, err := core.Run(img, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stdout != string(out) || int(res.ExitCode) != native {
				t.Errorf("tilevm: stdout %q exit %d, native %q exit %d", res.Stdout, res.ExitCode, out, native)
			}
		})
	}
}

// TestSyscallDedupUnderStall stalls the syscall proxy tile (tile 0 of
// the default placement) from cycle 1 while crc.O2 makes its syscalls,
// with the recovery protocol armed by a fail clause that never fires.
// A syscall is not idempotent, and the protocol sends each request
// once: the stalled tile answers it when the stall ends, so every
// syscall runs once. Each row must print stdout once and end in the
// fault-free state hash.
func TestSyscallDedupUnderStall(t *testing.T) {
	img, err := guest.LoadELFFile("testdata/cguests/crc.O2")
	if err != nil {
		t.Fatal(err)
	}
	clean, err := core.Run(img, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, stall := range []uint64{50_000, 200_000} {
		cfg := core.DefaultConfig()
		cfg.Fault = &fault.Plan{
			Stalls: []fault.TileStall{{Tile: 0, Cycle: 1, Dur: stall}},
			Fails:  []fault.TileFail{{Tile: 8, Cycle: 1 << 60}},
		}
		res, err := core.Run(img, cfg)
		if err != nil {
			t.Fatalf("stall %d: %v", stall, err)
		}
		if res.Stdout != clean.Stdout || res.ExitCode != clean.ExitCode || res.StateHash != clean.StateHash {
			t.Errorf("stall %d: stdout %q exit %d hash %#x, fault-free %q exit %d hash %#x",
				stall, res.Stdout, res.ExitCode, res.StateHash, clean.Stdout, clean.ExitCode, clean.StateHash)
		}
	}
}
