// Command recordverdicts records tilevm's verdict on every pair of its
// flags: each flag is set to one non-default value, the flags its mode
// requires are added, and a built tilevm binary is run on the result
// with a small -maxcycles. A row is "rejected" when the binary exits 1
// with a configuration message, and "started" when it ran — to the end,
// to the watchdog, or to a run-time failure of the simulation.
//
//	go build -o /tmp/tilevm ./cmd/tilevm
//	go run ./cmd/tilevm/testdata/recordverdicts /tmp/tilevm > cmd/tilevm/testdata/flag_verdicts.txt
//
// Each row is "verdict<TAB>flag<TAB>flag<TAB>args<TAB># last stderr
// line". Paths in args are under $DIR, which the recorder (and the test
// that replays the table through parse) points at a scratch directory
// holding a tiny guest image (tiny.tvmi) and a record of it (in.tvrc).
package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"

	"tilevm/internal/guest"
	"tilevm/internal/x86"
)

// flags lists every tilevm flag with one non-default value ("" sets a
// boolean, "=false" clears one) and the flags its mode requires.
var flags = []struct {
	name, value string
	requires    []string
}{
	{"image", "$DIR/tiny.tvmi", nil},
	{"workload", "181.mcf", nil},
	{"guests", "164.gzip,181.mcf", nil},
	{"grid", "8x8", []string{"-guests", "164.gzip,181.mcf"}},
	{"planner", "", []string{"-guests", "164.gzip,181.mcf"}},
	{"deadline", "100000", []string{"-guests", "164.gzip,181.mcf"}},
	{"slaves", "9", nil},
	{"speculate", "=false", nil},
	{"l15", "0", nil},
	{"membanks", "1", nil},
	{"opt", "=false", nil},
	{"morph", "", nil},
	{"threshold", "15", nil},
	{"maxcycles", maxCycles, nil},
	{"timeout", "1h", nil},
	{"fault-plan", "fail:7@1000", nil},
	{"record", "$DIR/out.tvrc", nil},
	{"replay", "$DIR/in.tvrc", nil},
	{"v", "", nil},
	{"dump", "entry", nil},
	{"trace", "$DIR/t.json", nil},
	{"trace-interval", "10000", []string{"-trace", "$DIR/t.json"}},
	{"cpuprofile", "$DIR/cpu.prof", nil},
	{"memprofile", "$DIR/mem.prof", nil},
}

// maxCycles is the watchdog every row runs under.
const maxCycles = "20000"

// guestSources are the flags that name the guest; a row with none of
// them runs -workload 164.gzip.
var guestSources = map[string]bool{"image": true, "workload": true, "guests": true, "replay": true}

// runtimeFailure matches the messages of a run that started and then
// failed inside the simulation.
var runtimeFailure = regexp.MustCompile(`simulation failed|guest \d+ failed|guest execution failed|time limit|deadlock|rollback recovery exceeded|rollback left`)

// pairArgs builds the argument list for flags i and j (i == j is the
// flag alone): both flags, then each one's requirements, then the guest
// and the watchdog, with no flag given twice.
func pairArgs(i, j int) []string {
	var args []string
	seen := map[string]bool{}
	add := func(name, value string) {
		if seen[name] {
			return
		}
		seen[name] = true
		switch {
		case value == "":
			args = append(args, "-"+name)
		case strings.HasPrefix(value, "="):
			args = append(args, "-"+name+value)
		default:
			args = append(args, "-"+name, value)
		}
	}
	for _, k := range []int{i, j} {
		add(flags[k].name, flags[k].value)
	}
	for _, k := range []int{i, j} {
		req := flags[k].requires
		for r := 0; r < len(req); r++ {
			name := strings.TrimPrefix(req[r], "-")
			value := ""
			if r+1 < len(req) && !strings.HasPrefix(req[r+1], "-") {
				value = req[r+1]
				r++
			}
			add(name, value)
		}
	}
	source := false
	for name := range seen {
		source = source || guestSources[name]
	}
	if !source {
		add("workload", "164.gzip")
	}
	add("maxcycles", maxCycles)
	return args
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: recordverdicts <tilevm binary>")
		os.Exit(2)
	}
	bin := os.Args[1]
	dir, err := os.MkdirTemp("", "tilevm-verdicts")
	if err != nil {
		die(err)
	}
	defer os.RemoveAll(dir)
	if err := setup(bin, dir); err != nil {
		die(err)
	}
	for i := range flags {
		for j := i; j < len(flags); j++ {
			args := pairArgs(i, j)
			verdict, msg, err := run(bin, dir, args)
			if err != nil {
				die(fmt.Errorf("%s: %w", strings.Join(args, " "), err))
			}
			fmt.Printf("%s\t%s\t%s\t%s\t# %s\n", verdict, flags[i].name, flags[j].name, strings.Join(args, " "), msg)
		}
	}
}

// setup writes the tiny guest image and a record of a complete run of
// it into dir.
func setup(bin, dir string) error {
	a := x86.NewAsm(guest.DefaultCodeBase)
	a.MovRegImm(x86.EBX, 7)
	a.MovRegImm(x86.EAX, 1)
	a.Int(0x80)
	img := &guest.Image{Entry: guest.DefaultCodeBase, CodeBase: guest.DefaultCodeBase, Code: a.Bytes()}
	if err := guest.SaveImage(img, filepath.Join(dir, "tiny.tvmi")); err != nil {
		return err
	}
	out, err := exec.Command(bin, "-image", filepath.Join(dir, "tiny.tvmi"),
		"-record", filepath.Join(dir, "in.tvrc")).CombinedOutput()
	if err != nil {
		return fmt.Errorf("recording the tiny guest: %v\n%s", err, out)
	}
	return nil
}

// run executes one row and classifies it.
func run(bin, dir string, args []string) (verdict, msg string, err error) {
	expanded := make([]string, len(args))
	for i, a := range args {
		expanded[i] = strings.ReplaceAll(a, "$DIR", dir)
	}
	cmd := exec.Command(bin, expanded...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	cmd.Stdout = nil
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stderr.String()), "\n")
	msg = lines[len(lines)-1]
	msg = strings.ReplaceAll(msg, dir, "$DIR")
	var exit *exec.ExitError
	switch {
	case runErr == nil:
		return "started", msg, nil
	case !errors.As(runErr, &exit):
		return "", "", runErr
	case exit.ExitCode() == 2 && !strings.Contains(stderr.String(), "panic"):
		return "started", msg, nil // a replay that diverged
	case exit.ExitCode() == 1 && runtimeFailure.MatchString(msg):
		return "started", msg, nil
	case exit.ExitCode() == 1:
		return "rejected", msg, nil
	}
	return "", "", fmt.Errorf("exit %d: %s", exit.ExitCode(), stderr.String())
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "recordverdicts:", err)
	os.Exit(1)
}
