package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// ParsePlan parses the command-line fault-plan syntax: a comma-
// separated list of clauses.
//
//	fail:T@C        tile T fail-stops at cycle C
//	stall:T@C+D     tile T stalls for D cycles at cycle C
//
// Example: "fail:8@200000,stall:7@50000+20000"
func ParsePlan(s string) (*Plan, error) {
	p := &Plan{}
	s = strings.TrimSpace(s)
	if s == "" {
		return p, nil
	}
	for _, clause := range strings.Split(s, ",") {
		kind, arg, ok := strings.Cut(strings.TrimSpace(clause), ":")
		if !ok {
			return nil, fmt.Errorf("fault: clause %q: want kind:arg", clause)
		}
		switch kind {
		case "fail":
			tile, cycle, _, err := parseTileAt(arg, false)
			if err != nil {
				return nil, fmt.Errorf("fault: clause %q: %w", clause, err)
			}
			p.Fails = append(p.Fails, TileFail{Tile: tile, Cycle: cycle})
		case "stall":
			tile, cycle, dur, err := parseTileAt(arg, true)
			if err != nil {
				return nil, fmt.Errorf("fault: clause %q: %w", clause, err)
			}
			p.Stalls = append(p.Stalls, TileStall{Tile: tile, Cycle: cycle, Dur: dur})
		default:
			return nil, fmt.Errorf("fault: unknown clause kind %q", kind)
		}
	}
	return p, nil
}

func parseTileAt(arg string, wantDur bool) (tile int, cycle, dur uint64, err error) {
	tileStr, rest, ok := strings.Cut(arg, "@")
	if !ok {
		return 0, 0, 0, fmt.Errorf("want T@C")
	}
	t, err := strconv.Atoi(tileStr)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("bad tile: %w", err)
	}
	cycleStr := rest
	if wantDur {
		var durStr string
		cycleStr, durStr, ok = strings.Cut(rest, "+")
		if !ok {
			return 0, 0, 0, fmt.Errorf("want T@C+D")
		}
		if dur, err = strconv.ParseUint(durStr, 10, 64); err != nil {
			return 0, 0, 0, fmt.Errorf("bad duration: %w", err)
		}
	}
	if cycle, err = strconv.ParseUint(cycleStr, 10, 64); err != nil {
		return 0, 0, 0, fmt.Errorf("bad cycle: %w", err)
	}
	return t, cycle, dur, nil
}

// String renders the plan back into the ParsePlan syntax.
func (p *Plan) String() string {
	var parts []string
	fails := append([]TileFail(nil), p.Fails...)
	sort.Slice(fails, func(i, j int) bool {
		if fails[i].Cycle != fails[j].Cycle {
			return fails[i].Cycle < fails[j].Cycle
		}
		return fails[i].Tile < fails[j].Tile
	})
	for _, f := range fails {
		parts = append(parts, fmt.Sprintf("fail:%d@%d", f.Tile, f.Cycle))
	}
	for _, s := range p.Stalls {
		parts = append(parts, fmt.Sprintf("stall:%d@%d+%d", s.Tile, s.Cycle, s.Dur))
	}
	return strings.Join(parts, ",")
}
