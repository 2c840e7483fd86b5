package main

import (
	"bufio"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"tilevm/internal/guest"
	"tilevm/internal/x86"
)

// TestFlagVerdicts replays testdata/flag_verdicts.txt — every pair of
// flags, as the built binary judged it (testdata/recordverdicts) —
// through parse: a rejected row must fail to parse, a started row must
// parse. parse creates no file, so the row directory, which holds the
// tiny guest image rows run, must hold nothing else afterwards.
func TestFlagVerdicts(t *testing.T) {
	f, err := os.Open("testdata/flag_verdicts.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dir := t.TempDir()
	a := x86.NewAsm(guest.DefaultCodeBase)
	a.MovRegImm(x86.EBX, 7)
	a.MovRegImm(x86.EAX, 1)
	a.Int(0x80)
	tiny := filepath.Join(dir, "tiny.tvmi")
	if err := guest.SaveImage(&guest.Image{Entry: guest.DefaultCodeBase, CodeBase: guest.DefaultCodeBase, Code: a.Bytes()}, tiny); err != nil {
		t.Fatal(err)
	}
	rows := 0
	for sc := bufio.NewScanner(f); sc.Scan(); rows++ {
		cols := strings.Split(sc.Text(), "\t")
		if len(cols) < 4 {
			t.Fatalf("malformed row %q", sc.Text())
		}
		verdict, args := cols[0], strings.Fields(strings.ReplaceAll(cols[3], "$DIR", dir))
		_, err := parse(args)
		if got := map[bool]string{true: "rejected", false: "started"}[err != nil]; got != verdict {
			t.Errorf("tilevm %s: %s (%v), recorded %s", cols[3], got, err, verdict)
		}
	}
	if rows == 0 {
		t.Fatal("no verdict rows")
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*")); len(left) != 1 || left[0] != tiny {
		t.Errorf("parse created %v", left)
	}
}

// TestConfigErrorNamesFlags: a configuration core rejects is reported
// under the flags that set the fields in conflict.
func TestConfigErrorNamesFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-workload", "164.gzip", "-slaves", "9"}, "-slaves, -membanks: core: 9 slaves and 4 memory banks"},
		{[]string{"-guests", "164.gzip", "-grid", "3x3"}, "-grid: core: 3×3 fabric fits no"},
		{[]string{"-guests", "164.gzip", "-morph"}, "-morph: core: intra-VM morphing"},
		{[]string{"-workload", "164.gzip", "-trace-interval", "9"}, "-trace-interval requires -trace"},
		{[]string{"-guests", "164.gzip", "-slaves", "2"}, "-slaves does not apply in fleet mode"},
	} {
		_, err := parse(tc.args)
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("parse(%q) = %v, want prefix %q", tc.args, err, tc.want)
		}
	}
}

// TestRemovedFlagsAreUnknown runs main, in a child process of the test
// binary, with flags tilevm no longer has: each must stop the parse with
// the flag package's unknown-flag message and exit status 2.
func TestRemovedFlagsAreUnknown(t *testing.T) {
	if args := os.Getenv("TILEVM_TEST_ARGS"); args != "" {
		os.Args = append([]string{"tilevm"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, args := range []string{"-tier0", "-tier-up-threshold 2000", "-fault-seed 42", "-recovery rollback", "-fault-norecover"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestRemovedFlagsAreUnknown$")
		cmd.Env = append(os.Environ(), "TILEVM_TEST_ARGS=-workload 164.gzip "+args)
		out, err := cmd.CombinedOutput()
		flag := strings.Fields(args)[0]
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 ||
			!strings.Contains(string(out), "flag provided but not defined: "+flag) {
			t.Errorf("tilevm %s: %v\n%s", args, err, out)
		}
	}
}
