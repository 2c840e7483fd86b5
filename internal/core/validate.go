package core

import (
	"fmt"
	"slices"

	"tilevm/internal/fault"
	"tilevm/internal/raw"
)

// ConfigError is a configuration that Validate or ValidateFleet
// rejects. Fields names the Config or FleetConfig fields in conflict
// ("Params" for the fabric size); a CLI maps them back to its flags.
type ConfigError struct {
	Fields []string
	Reason string
	// cause is the structured error behind Reason (a *NoFitError), if any.
	cause error
}

func (e *ConfigError) Error() string { return "core: " + e.Reason }

// Unwrap exposes the structured cause, so errors.As still finds a
// *NoFitError inside a rejected fleet.
func (e *ConfigError) Unwrap() error { return e.cause }

func configErr(fields []string, format string, args ...any) *ConfigError {
	return &ConfigError{Fields: fields, Reason: fmt.Sprintf(format, args...)}
}

// Validate decides whether Run accepts the configuration. It makes every
// check Run makes before simulating, so a nil return means Run will
// simulate and a non-nil one is the *ConfigError Run would return.
func (cfg *Config) Validate() error {
	if cfg.Slaves < 1 || cfg.Slaves > len(tilesPermSlave)+len(tilesSwitchable) {
		return configErr([]string{"Slaves"}, "%d slaves out of range", cfg.Slaves)
	}
	if cfg.L15Banks < 0 || cfg.L15Banks > len(tilesL15) {
		return configErr([]string{"L15Banks"}, "%d L1.5 banks out of range", cfg.L15Banks)
	}
	if cfg.MemBanks < 1 || cfg.MemBanks > 1+len(tilesSwitchable) {
		return configErr([]string{"MemBanks"}, "%d memory banks out of range", cfg.MemBanks)
	}
	if max(cfg.Slaves-len(tilesPermSlave), 0)+cfg.MemBanks-1 > len(tilesSwitchable) {
		return configErr([]string{"Slaves", "MemBanks"},
			"%d slaves and %d memory banks exceed the switchable tile pool", cfg.Slaves, cfg.MemBanks)
	}
	if cfg.Morph && (cfg.Slaves != 6 || cfg.MemBanks != 4) {
		return configErr([]string{"Morph", "Slaves", "MemBanks"},
			"morphing requires the 6-slave/4-bank initial configuration")
	}
	pl := place(cfg)
	return validateFaultPlan(&pl, cfg)
}

// validateFaultPlan rejects fault plans the recovery protocol cannot
// survive: fail-stops are only meaningful on worker tiles (translation
// slaves and data banks — the redundant, excisable resources of the
// virtual architecture; the exec, manager, MMU, L1.5, and syscall tiles
// are single points of service), at least one slave and one bank must
// outlive the plan, and fail-stops compose with morphing only trivially
// (morphing retargets the same switchable tiles recovery excises).
func validateFaultPlan(pl *placement, cfg *Config) error {
	if cfg.Fault == nil || len(cfg.Fault.Fails) == 0 {
		return nil
	}
	if cfg.Morph {
		return configErr([]string{"Fault", "Morph"}, "tile fail-stops and morphing are mutually exclusive")
	}
	workers := slices.Concat(pl.slaves, pl.banks)
	dead := map[int]bool{}
	for _, f := range cfg.Fault.Fails {
		if !slices.Contains(workers, f.Tile) {
			return configErr([]string{"Fault", "Slaves", "MemBanks"},
				"fault plan fail-stops tile %d, which is not a worker (slave/bank) tile", f.Tile)
		}
		dead[f.Tile] = true
	}
	live := func(tiles []int) (n int) {
		for _, t := range tiles {
			if !dead[t] {
				n++
			}
		}
		return n
	}
	if liveSlaves, liveBanks := live(pl.slaves), live(pl.banks); liveSlaves == 0 || liveBanks == 0 {
		return configErr([]string{"Fault", "Slaves", "MemBanks"},
			"fault plan leaves %d live slaves and %d live banks; need at least one of each",
			liveSlaves, liveBanks)
	}
	return nil
}

// ValidateFleet decides whether RunFleet accepts the configuration for
// the given number of guests, as Validate does for Run: it makes every
// check RunFleet makes before simulating, carving the fabric alike.
func ValidateFleet(cfg *Config, fc FleetConfig, guests int) error {
	_, err := validateFleet(cfg, fc, guests)
	return err
}

// validateFleet is ValidateFleet returning the carve, which RunFleet
// runs on: one base-tier scan settles the slot count — exactly MaxSlots
// or as many as fit, never more than there are guests — and, with
// profiles, the planner re-shapes that many slots.
func validateFleet(cfg *Config, fc FleetConfig, guests int) ([]placement, error) {
	if guests == 0 {
		return nil, configErr(nil, "fleet mode needs at least one guest")
	}
	if cfg.Morph {
		return nil, configErr([]string{"Morph"}, "intra-VM morphing and fleet mode are mutually exclusive")
	}
	if cfg.Journal != nil {
		return nil, configErr([]string{"Journal"}, "record-replay is not supported in fleet mode")
	}
	if fc.MaxAttempts < 0 {
		return nil, configErr([]string{"MaxAttempts"}, "fleet MaxAttempts must be non-negative, got %d", fc.MaxAttempts)
	}
	if len(fc.Deadlines) != 0 && len(fc.Deadlines) != guests {
		return nil, configErr([]string{"Deadlines"},
			"%d per-guest deadlines for %d guests (need none or one per guest)", len(fc.Deadlines), guests)
	}
	if len(fc.Profiles) != 0 && len(fc.Profiles) != guests {
		return nil, configErr([]string{"Profiles"},
			"%d guest profiles for %d guests (need none or one per guest)", len(fc.Profiles), guests)
	}
	slots, err := planFabric(cfg.Params, nil, fc.MaxSlots)
	if err != nil {
		return nil, err
	}
	if len(slots) > guests {
		slots = slots[:guests]
	}
	if len(fc.Profiles) > 0 {
		// The planner only changes shapes and role splits, never the count.
		if slots, err = planFabric(cfg.Params, fc.Profiles, len(slots)); err != nil {
			return nil, err
		}
	}
	if !cfg.Fault.Empty() {
		if err := validateFleetFaultPlan(cfg.Fault, slots, cfg.Params); err != nil {
			return nil, err
		}
	}
	return slots, nil
}

// validateFleetFaultPlan rejects fault plans the fleet policy layer
// cannot honor: every clause must target a tile inside a carved slot (a
// fault on an uncarved tile could never be observed).
func validateFleetFaultPlan(plan *fault.Plan, slots []placement, p raw.Params) error {
	idx := slotIndexOf(slots, p.Tiles())
	check := func(kind string, tile int, cycle uint64) error {
		if tile < 0 || tile >= p.Tiles() {
			return configErr([]string{"Fault", "Params"}, "fleet fault plan %s targets tile %d outside the %d×%d fabric",
				kind, tile, p.Width, p.Height)
		}
		if idx[tile] < 0 {
			return configErr([]string{"Fault"}, "fleet fault plan %s targets tile %d, which is in no carved VM slot",
				kind, tile)
		}
		if cycle == 0 {
			return configErr([]string{"Fault"}, "fleet fault plan %s targets tile %d at cycle 0 (before any guest is admitted)",
				kind, tile)
		}
		return nil
	}
	for _, f := range plan.Fails {
		if err := check("fail", f.Tile, f.Cycle); err != nil {
			return err
		}
	}
	for _, s := range plan.Stalls {
		if err := check("stall", s.Tile, s.Cycle); err != nil {
			return err
		}
	}
	return nil
}
