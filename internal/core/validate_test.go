package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"tilevm/internal/checkpoint"
	"tilevm/internal/fault"
	"tilevm/internal/guest"
)

// rejectCase is one configuration the validators reject, with the
// fields the rejection names.
type rejectCase struct {
	name   string
	fleet  bool
	guests int // fleet rows; 0 is a fleet with no guests
	cfg    func(*Config)
	fc     FleetConfig
	fields []string
	want   string
}

// failsAt is a plan that fail-stops each tile at cycle 100.
func failsAt(tiles ...int) *fault.Plan {
	p := &fault.Plan{}
	for _, tile := range tiles {
		p.Fails = append(p.Fails, fault.TileFail{Tile: tile, Cycle: 100})
	}
	return p
}

// checkRejected runs each case through its validator and through Run or
// RunFleet: the validator returns a *ConfigError naming tc.fields, and
// the run returns exactly that error without simulating.
func checkRejected(t *testing.T, cases []rejectCase) {
	t.Helper()
	img := sumLoop(10)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.MaxCycles = 5_000_000
			if tc.cfg != nil {
				tc.cfg(&cfg)
			}
			var verr, rerr error
			if tc.fleet {
				imgs := make([]*guest.Image, tc.guests)
				for i := range imgs {
					imgs[i] = img
				}
				verr = ValidateFleet(&cfg, tc.fc, tc.guests)
				res, err := RunFleet(imgs, cfg, tc.fc)
				if res != nil {
					t.Errorf("RunFleet returned a result for a rejected config")
				}
				rerr = err
			} else {
				verr = cfg.Validate()
				res, err := Run(img, cfg)
				if res != nil {
					t.Errorf("Run returned a result for a rejected config")
				}
				rerr = err
			}
			var ce *ConfigError
			if !errors.As(verr, &ce) {
				t.Fatalf("validator = %v (%T), want a *ConfigError", verr, verr)
			}
			if !strings.Contains(ce.Error(), tc.want) {
				t.Errorf("error %q, want substring %q", ce, tc.want)
			}
			if !reflect.DeepEqual(ce.Fields, tc.fields) {
				t.Errorf("Fields = %q, want %q", ce.Fields, tc.fields)
			}
			if !reflect.DeepEqual(rerr, verr) {
				t.Errorf("run error %v, validator error %v", rerr, verr)
			}
			// Asking for more slots than fit is answered with the occupancy map.
			var nf *NoFitError
			if isNoFit := errors.As(verr, &nf); isNoFit != (tc.name == "too many slots") {
				t.Errorf("err = %v, *NoFitError only for too many slots", verr)
			} else if isNoFit && (nf.Want != 5 || nf.Placed != 2) {
				t.Errorf("%+v, want 5 requested and 2 placed", nf)
			}
		})
	}
}

// TestPlacementValidation: the slave, L1.5 and bank ranges and the morph
// shape are rejected; the default configuration is valid, and its roles
// are disjoint.
func TestPlacementValidation(t *testing.T) {
	checkRejected(t, []rejectCase{
		{name: "no slaves", cfg: func(c *Config) { c.Slaves = 0 }, fields: []string{"Slaves"}, want: "0 slaves out of range"},
		{name: "ten slaves", cfg: func(c *Config) { c.Slaves = 10 }, fields: []string{"Slaves"}, want: "10 slaves out of range"},
		{name: "switchable pool", cfg: func(c *Config) { c.Slaves = 9; c.MemBanks = 4 },
			fields: []string{"Slaves", "MemBanks"}, want: "exceed the switchable tile pool"},
		{name: "three L1.5 banks", cfg: func(c *Config) { c.L15Banks = 3 }, fields: []string{"L15Banks"}, want: "L1.5 banks out of range"},
		{name: "no memory banks", cfg: func(c *Config) { c.MemBanks = 0 }, fields: []string{"MemBanks"}, want: "memory banks out of range"},
		{name: "morph shape", cfg: func(c *Config) { c.Morph = true; c.Slaves = 9; c.MemBanks = 1 },
			fields: []string{"Morph", "Slaves", "MemBanks"}, want: "6-slave/4-bank"},
	})

	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	pl := place(&good)
	if len(pl.slaves) != 6 || len(pl.banks) != 4 || len(pl.l15) != 2 {
		t.Errorf("placement = %+v", pl)
	}
	seen := map[int]bool{tileSys: true, tileExec: true, tileManager: true, tileMMU: true}
	for _, lists := range [][]int{pl.slaves, pl.banks, pl.l15} {
		for _, tile := range lists {
			if seen[tile] {
				t.Errorf("tile %d assigned twice", tile)
			}
			seen[tile] = true
		}
	}
}

// TestFaultPlanValidation: fail-stops outside the excisable worker set,
// plans that leave no survivors, and fail-stop+morph are rejected up
// front.
func TestFaultPlanValidation(t *testing.T) {
	checkRejected(t, []rejectCase{
		{name: "exec tile", cfg: func(c *Config) { c.Fault = failsAt(5) },
			fields: []string{"Fault", "Slaves", "MemBanks"}, want: "tile 5, which is not a worker"},
		{name: "manager tile", cfg: func(c *Config) { c.Fault = failsAt(4) },
			fields: []string{"Fault", "Slaves", "MemBanks"}, want: "tile 4, which is not a worker"},
		{name: "all banks", cfg: func(c *Config) { c.Fault = failsAt(10, 7, 14, 2) },
			fields: []string{"Fault", "Slaves", "MemBanks"}, want: "0 live banks"},
		{name: "morph+fail", cfg: func(c *Config) { c.Morph = true; c.Fault = failsAt(7) },
			fields: []string{"Fault", "Morph"}, want: "mutually exclusive"},
	})
}

// TestRunFleetRejectsUnsupportedConfigs: every fleet configuration
// ValidateFleet rejects, and RunFleet with it.
func TestRunFleetRejectsUnsupportedConfigs(t *testing.T) {
	checkRejected(t, []rejectCase{
		{name: "no guests", fleet: true, want: "at least one guest"},
		{name: "fleet morph", fleet: true, guests: 1, cfg: func(c *Config) { c.Morph = true },
			fields: []string{"Morph"}, want: "morphing"},
		{name: "fleet journal", fleet: true, guests: 1, cfg: func(c *Config) { c.Journal = &checkpoint.Journal{} },
			fields: []string{"Journal"}, want: "record-replay"},
		// MaxSlots truncates the carve to slot 0; tile 8 is in (un-carved)
		// slot 1's territory.
		{name: "fail outside carve", fleet: true, guests: 1, cfg: func(c *Config) {
			c.Fault = &fault.Plan{Fails: []fault.TileFail{{Tile: 8, Cycle: 1000}}}
		}, fc: FleetConfig{MaxSlots: 1}, fields: []string{"Fault"}, want: "no carved VM slot"},
		{name: "fail off fabric", fleet: true, guests: 1, cfg: func(c *Config) {
			c.Fault = &fault.Plan{Fails: []fault.TileFail{{Tile: 99, Cycle: 1000}}}
		}, fields: []string{"Fault", "Params"}, want: "outside the"},
		{name: "fail at cycle zero", fleet: true, guests: 1, cfg: func(c *Config) {
			c.Fault = &fault.Plan{Fails: []fault.TileFail{{Tile: 3}}}
		}, fields: []string{"Fault"}, want: "cycle 0"},
		{name: "negative max attempts", fleet: true, guests: 1, fc: FleetConfig{MaxAttempts: -1},
			fields: []string{"MaxAttempts"}, want: "non-negative"},
		{name: "negative max slots", fleet: true, guests: 1, fc: FleetConfig{MaxSlots: -1},
			fields: []string{"MaxSlots"}, want: "-1 VM slots requested"},
		{name: "deadline count mismatch", fleet: true, guests: 1, fc: FleetConfig{Deadlines: []uint64{1, 2}},
			fields: []string{"Deadlines"}, want: "per-guest deadlines"},
		{name: "profile count mismatch", fleet: true, guests: 1, fc: FleetConfig{Profiles: make([]GuestProfile, 2)},
			fields: []string{"Profiles"}, want: "guest profiles"},
		{name: "too many slots", fleet: true, guests: 1, fc: FleetConfig{MaxSlots: 5},
			fields: []string{"Params", "MaxSlots"}, want: "fits only"},
		{name: "tiny fabric", fleet: true, guests: 1, cfg: func(c *Config) { c.Params.Width, c.Params.Height = 3, 3 },
			fields: []string{"Params"}, want: "fits no"},
	})
}

// FuzzValidate draws random knob values: the validators must never
// panic, and they accept a configuration exactly when Run (or RunFleet)
// on a tiny guest returns no *ConfigError.
//
//	go test ./internal/core -run - -fuzz FuzzValidate -fuzztime 30s
func FuzzValidate(f *testing.F) {
	f.Add(false, int8(6), int8(2), int8(4), uint8(0), uint8(0), uint8(3), uint8(4), uint8(4), int8(0), int8(0), uint8(0), uint8(0), uint8(1))
	f.Add(false, int8(9), int8(0), int8(1), uint8(0b1), uint8(1), uint8(7), uint8(4), uint8(4), int8(0), int8(0), uint8(0), uint8(0), uint8(1))
	f.Add(true, int8(6), int8(2), int8(4), uint8(0b10), uint8(2), uint8(9), uint8(8), uint8(4), int8(3), int8(-1), uint8(2), uint8(2), uint8(2))
	f.Add(true, int8(6), int8(2), int8(4), uint8(0), uint8(5), uint8(2), uint8(3), uint8(3), int8(-1), int8(2), uint8(1), uint8(3), uint8(0))
	img := sumLoop(10)
	f.Fuzz(func(t *testing.T, fleet bool, slaves, l15, banks int8, bits, faultKind, faultTile, w, h uint8,
		maxSlots, maxAttempts int8, deadlines, profiles, guests uint8) {
		cfg := DefaultConfig()
		cfg.MaxCycles = 2_000_000
		cfg.Slaves, cfg.L15Banks, cfg.MemBanks = int(slaves), int(l15), int(banks)
		cfg.Morph = bits&1 != 0
		if bits&2 != 0 {
			cfg.Journal = &checkpoint.Journal{}
		}
		tile := int(faultTile % 20)
		switch faultKind % 5 {
		case 1:
			cfg.Fault = &fault.Plan{Fails: []fault.TileFail{{Tile: tile, Cycle: 100}}}
		case 2:
			cfg.Fault = &fault.Plan{Fails: []fault.TileFail{{Tile: tile, Cycle: 100}, {Tile: tile/2 + 1, Cycle: 0}}}
		case 3:
			cfg.Fault = &fault.Plan{Stalls: []fault.TileStall{{Tile: tile, Cycle: 100, Dur: 500}}}
		case 4:
			cfg.Fault = &fault.Plan{Stalls: []fault.TileStall{{Tile: tile, Cycle: 50, Dur: 500}},
				Fails: []fault.TileFail{{Tile: tile, Cycle: 100}}}
		}
		var verr, rerr error
		if fleet {
			cfg.Params.Width, cfg.Params.Height = int(w%10), int(h%10)
			fc := FleetConfig{
				MaxSlots:    int(maxSlots % 6),
				MaxAttempts: int(maxAttempts % 4),
				Deadlines:   make([]uint64, deadlines%4),
				Profiles:    make([]GuestProfile, profiles%4),
			}
			imgs := make([]*guest.Image, guests%4)
			for i := range imgs {
				imgs[i] = img
			}
			verr = ValidateFleet(&cfg, fc, len(imgs))
			_, rerr = RunFleet(imgs, cfg, fc)
		} else {
			verr = cfg.Validate()
			_, rerr = Run(img, cfg)
		}
		var ce *ConfigError
		if verr != nil && !errors.As(verr, &ce) {
			t.Fatalf("validator error %v is a %T, not a *ConfigError", verr, verr)
		}
		if rejected := errors.As(rerr, &ce); rejected != (verr != nil) {
			t.Fatalf("validator says %v, run says %v", verr, rerr)
		}
	})
}
