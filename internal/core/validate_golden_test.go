package core

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tilevm/internal/checkpoint"
	"tilevm/internal/fault"
	"tilevm/internal/guest"
)

// verdictGolden pins, for every pair of configuration knob settings,
// whether Run (single VM) and RunFleet (two guests) reject the
// configuration — a nil result with an error — or run it. Delete the
// file and run TestValidateVerdictGolden to re-record it.
const verdictGolden = "testdata/validate_verdicts.golden"

// knobSetting is one non-default value of one configuration knob.
// fleetOnly settings apply to RunFleet alone.
type knobSetting struct {
	knob, value string
	fleetOnly   bool
	set         func(*Config, *FleetConfig)
}

func withFault(p fault.Plan) func(*Config, *FleetConfig) {
	return func(c *Config, _ *FleetConfig) { plan := p; c.Fault = &plan }
}

// knobSettings covers the knobs whose combinations decide validity.
var knobSettings = []knobSetting{
	{"Slaves", "0", false, func(c *Config, _ *FleetConfig) { c.Slaves = 0 }},
	{"Slaves", "9", false, func(c *Config, _ *FleetConfig) { c.Slaves = 9 }},
	{"Slaves", "10", false, func(c *Config, _ *FleetConfig) { c.Slaves = 10 }},
	{"L15Banks", "0", false, func(c *Config, _ *FleetConfig) { c.L15Banks = 0 }},
	{"L15Banks", "3", false, func(c *Config, _ *FleetConfig) { c.L15Banks = 3 }},
	{"MemBanks", "0", false, func(c *Config, _ *FleetConfig) { c.MemBanks = 0 }},
	{"MemBanks", "1", false, func(c *Config, _ *FleetConfig) { c.MemBanks = 1 }},
	{"Morph", "true", false, func(c *Config, _ *FleetConfig) { c.Morph = true }},
	{"Fault", "fail-worker", false, withFault(fault.Plan{Fails: []fault.TileFail{{Tile: 3, Cycle: 100}}})},
	{"Fault", "fail-exec", false, withFault(fault.Plan{Fails: []fault.TileFail{{Tile: 5, Cycle: 100}}})},
	{"Fault", "fail-all-slaves", false, withFault(fault.Plan{Fails: []fault.TileFail{
		{Tile: 3, Cycle: 100}, {Tile: 8, Cycle: 100}, {Tile: 11, Cycle: 100},
		{Tile: 12, Cycle: 100}, {Tile: 13, Cycle: 100}, {Tile: 15, Cycle: 100}}})},
	{"Fault", "stall", false, withFault(fault.Plan{Stalls: []fault.TileStall{{Tile: 6, Cycle: 100, Dur: 500}}})},
	{"Journal", "set", false, func(c *Config, _ *FleetConfig) { c.Journal = &checkpoint.Journal{} }},
	{"Grid", "3x3", true, func(c *Config, _ *FleetConfig) { c.Params.Width, c.Params.Height = 3, 3 }},
	{"Grid", "4x2", true, func(c *Config, _ *FleetConfig) { c.Params.Width, c.Params.Height = 4, 2 }},
	{"Grid", "8x4", true, func(c *Config, _ *FleetConfig) { c.Params.Width, c.Params.Height = 8, 4 }},
	{"MaxSlots", "-1", true, func(_ *Config, f *FleetConfig) { f.MaxSlots = -1 }},
	{"MaxSlots", "1", true, func(_ *Config, f *FleetConfig) { f.MaxSlots = 1 }},
	{"MaxSlots", "3", true, func(_ *Config, f *FleetConfig) { f.MaxSlots = 3 }},
	{"MaxAttempts", "-1", true, func(_ *Config, f *FleetConfig) { f.MaxAttempts = -1 }},
	{"MaxAttempts", "2", true, func(_ *Config, f *FleetConfig) { f.MaxAttempts = 2 }},
	{"Deadlines", "len1", true, func(_ *Config, f *FleetConfig) { f.Deadlines = []uint64{50_000} }},
	{"Deadlines", "len2", true, func(_ *Config, f *FleetConfig) { f.Deadlines = []uint64{50_000, 60_000} }},
	{"Profiles", "len1", true, func(_ *Config, f *FleetConfig) { f.Profiles = []GuestProfile{{1, 1}} }},
	{"Profiles", "len2", true, func(_ *Config, f *FleetConfig) { f.Profiles = []GuestProfile{{1, 1}, {2, 1}} }},
}

// verdictCase is one row of the golden: a pair of settings (a == b is
// the setting alone; -1 is the default configuration) through Run or
// RunFleet.
type verdictCase struct {
	fleet bool
	a, b  int
}

func (vc verdictCase) String() string {
	name := func(i int) string {
		if i < 0 {
			return "default"
		}
		return knobSettings[i].knob + "=" + knobSettings[i].value
	}
	entry := "run"
	if vc.fleet {
		entry = "fleet"
	}
	return entry + "\t" + name(vc.a) + "\t" + name(vc.b)
}

// config builds the case's configuration over the tiny-guest defaults.
func (vc verdictCase) config() (Config, FleetConfig) {
	cfg := DefaultConfig()
	cfg.MaxCycles = 5_000_000
	var fc FleetConfig
	for _, i := range []int{vc.a, vc.b} {
		if i >= 0 {
			knobSettings[i].set(&cfg, &fc)
		}
	}
	return cfg, fc
}

// verdictCases enumerates the golden's rows: every pair of settings of
// different knobs, through RunFleet, and through Run as well when
// neither setting is fleet-only.
func verdictCases() []verdictCase {
	cases := []verdictCase{{false, -1, -1}, {true, -1, -1}}
	for a := range knobSettings {
		for b := a; b < len(knobSettings); b++ {
			if b != a && knobSettings[a].knob == knobSettings[b].knob {
				continue
			}
			if !knobSettings[a].fleetOnly && !knobSettings[b].fleetOnly {
				cases = append(cases, verdictCase{false, a, b})
			}
			cases = append(cases, verdictCase{true, a, b})
		}
	}
	return cases
}

// runVerdict runs the case on tiny guests and returns "rejected" (nil
// result with an error) or "ran", with the error.
func runVerdict(vc verdictCase, img *guest.Image) (string, error) {
	cfg, fc := vc.config()
	var rejected bool
	var err error
	if vc.fleet {
		var res *FleetResult
		res, err = RunFleet([]*guest.Image{img, img}, cfg, fc)
		rejected = res == nil && err != nil
	} else {
		var res *Result
		res, err = Run(img, cfg)
		rejected = res == nil && err != nil
	}
	if rejected {
		return "rejected", err
	}
	return "ran", err
}

// validatorVerdict asks the validators alone for the case's verdict.
func validatorVerdict(vc verdictCase) (string, error) {
	cfg, fc := vc.config()
	var err error
	if vc.fleet {
		err = ValidateFleet(&cfg, fc, 2)
	} else {
		err = cfg.Validate()
	}
	if err != nil {
		return "rejected", err
	}
	return "ran", nil
}

// TestValidateVerdictGolden runs every knob pair through Run and
// RunFleet and compares the verdicts with the golden. The validators
// alone must reach the same verdict, and a rejecting Run or RunFleet
// must return exactly the validator's error.
func TestValidateVerdictGolden(t *testing.T) {
	img := sumLoop(10)
	var b strings.Builder
	for _, vc := range verdictCases() {
		verdict, runErr := runVerdict(vc, img)
		vverdict, verr := validatorVerdict(vc)
		if vverdict != verdict {
			t.Errorf("%s: validators say %s (%v), run says %s (%v)", vc, vverdict, verr, verdict, runErr)
		} else if verr != nil && !reflect.DeepEqual(runErr, verr) {
			t.Errorf("%s: run error %v, validator error %v", vc, runErr, verr)
		}
		fmt.Fprintf(&b, "%s\t%s\n", vc, verdict)
	}
	got := b.String()
	want, err := os.ReadFile(verdictGolden)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(verdictGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(verdictGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %s; re-run to check against it", verdictGolden)
	}
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d verdict rows, golden has %d", len(gotLines), len(wantLines))
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("row %d: got %q, golden %q", i, gotLines[i], wantLines[i])
		}
	}
}
