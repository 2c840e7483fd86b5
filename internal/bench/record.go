package bench

import (
	"fmt"

	"tilevm/internal/checkpoint"
	"tilevm/internal/core"
	"tilevm/internal/fault"
	"tilevm/internal/guest"
	"tilevm/internal/workload"
)

// RunRecorded executes the run a RecordConfig describes, journaling the
// deterministic event stream, and returns the result plus the finished
// Record. The simulation is deterministic given the config, so the
// Record is a complete reproduction recipe: replaying re-runs the
// simulation from the same inputs and compares outcomes.
func RunRecorded(rc checkpoint.RecordConfig) (*core.Result, *checkpoint.Record, error) {
	img, err := recordImage(rc)
	if err != nil {
		return nil, nil, err
	}
	cfg, j, err := recordConfig(rc)
	if err != nil {
		return nil, nil, err
	}
	res, err := core.Run(img, cfg)
	if err != nil {
		return res, nil, err
	}
	rec := &checkpoint.Record{
		Config: rc,
		Events: j.Events,
		Final: checkpoint.RecordFinal{
			Cycles:    res.Cycles,
			ExitCode:  res.ExitCode,
			StateHash: res.StateHash,
		},
	}
	return res, rec, nil
}

// ReplayReport is the outcome of replaying a Record.
type ReplayReport struct {
	Match bool // cycles, exit code, and state hash all reproduced

	CyclesRef, CyclesGot uint64
	ExitRef, ExitGot     int32
	HashRef, HashGot     uint64

	// FirstDivergent is the index of the first journal event that
	// differs between the recorded run and the replay (-1 when the
	// streams are identical). RefEvent/GotEvent are the events at that
	// index; nil when one stream ended first.
	FirstDivergent     int
	RefEvent, GotEvent *checkpoint.Event
}

// String formats the report as the one-line-per-fact verdict tilevm
// prints.
func (r *ReplayReport) String() string {
	if r.Match && r.FirstDivergent < 0 {
		return fmt.Sprintf("replay: identical (%d cycles, exit %d, state %#x)",
			r.CyclesGot, r.ExitGot, r.HashGot)
	}
	s := fmt.Sprintf("replay: DIVERGED\n  cycles: recorded %d, replayed %d\n  exit:   recorded %d, replayed %d\n  state:  recorded %#x, replayed %#x",
		r.CyclesRef, r.CyclesGot, r.ExitRef, r.ExitGot, r.HashRef, r.HashGot)
	if r.FirstDivergent >= 0 {
		s += fmt.Sprintf("\n  first divergent event: #%d", r.FirstDivergent)
		if r.RefEvent != nil {
			s += fmt.Sprintf("\n    recorded: cycle %d %s a=%#x b=%#x",
				r.RefEvent.Cycle, r.RefEvent.Kind, r.RefEvent.A, r.RefEvent.B)
		} else {
			s += "\n    recorded: (stream ended)"
		}
		if r.GotEvent != nil {
			s += fmt.Sprintf("\n    replayed: cycle %d %s a=%#x b=%#x",
				r.GotEvent.Cycle, r.GotEvent.Kind, r.GotEvent.A, r.GotEvent.B)
		} else {
			s += "\n    replayed: (stream ended)"
		}
	}
	return s
}

// Replay re-executes a recorded run and compares it against the record:
// final cycle count, exit code, and guest state hash, plus a bisection
// to the first divergent journal event when anything differs. With
// toCycle > 0 the replay halts the simulation at that virtual cycle
// instead of running to completion (the journal prefix up to the halt
// is still compared, which localizes a divergence in time).
func Replay(rec *checkpoint.Record, toCycle uint64) (*ReplayReport, error) {
	rc := rec.Config
	partial := toCycle > 0
	if partial {
		rc.MaxCycles = toCycle
	}
	img, err := recordImage(rc)
	if err != nil {
		return nil, err
	}
	cfg, j, err := recordConfig(rc)
	if err != nil {
		return nil, err
	}
	res, err := core.Run(img, cfg)
	if err != nil && !partial {
		return nil, err
	}
	if res == nil {
		return nil, fmt.Errorf("replay: no result: %w", err)
	}

	rep := &ReplayReport{
		CyclesRef: rec.Final.Cycles, CyclesGot: res.Cycles,
		ExitRef: rec.Final.ExitCode, ExitGot: res.ExitCode,
		HashRef: rec.Final.StateHash, HashGot: res.StateHash,
	}
	refEvents, gotEvents := rec.Events, j.Events
	if partial {
		// Compare only the journal prefix both sides could have
		// produced: events past the halt cycle on the recorded side,
		// and the halted replay's own artificial final event, are both
		// artifacts of the truncation, not divergence.
		n := 0
		for n < len(refEvents) && refEvents[n].Cycle <= res.Cycles {
			n++
		}
		refEvents = refEvents[:n]
		if len(gotEvents) < len(refEvents) {
			refEvents = refEvents[:len(gotEvents)]
		} else {
			gotEvents = gotEvents[:len(refEvents)]
		}
		rep.Match = true
	} else {
		rep.Match = res.Cycles == rec.Final.Cycles &&
			res.ExitCode == rec.Final.ExitCode &&
			res.StateHash == rec.Final.StateHash
	}
	rep.FirstDivergent = checkpoint.FirstDivergence(refEvents, gotEvents)
	if rep.FirstDivergent >= 0 {
		rep.Match = false
		if rep.FirstDivergent < len(refEvents) {
			rep.RefEvent = &refEvents[rep.FirstDivergent]
		}
		if rep.FirstDivergent < len(gotEvents) {
			rep.GotEvent = &gotEvents[rep.FirstDivergent]
		}
	}
	return rep, nil
}

// recordImage resolves the guest image a RecordConfig names.
func recordImage(rc checkpoint.RecordConfig) (*guest.Image, error) {
	switch {
	case rc.Workload != "" && rc.ImagePath != "":
		return nil, fmt.Errorf("record names both a workload and an image path")
	case rc.Workload != "":
		p, ok := workload.ByName(rc.Workload)
		if !ok {
			return nil, fmt.Errorf("record names unknown workload %q", rc.Workload)
		}
		return p.Build(), nil
	case rc.ImagePath != "":
		return guest.LoadAutoFile(rc.ImagePath)
	}
	return nil, fmt.Errorf("record names neither a workload nor an image path")
}

// recordConfig builds the engine config a RecordConfig describes, with
// a fresh journal attached.
func recordConfig(rc checkpoint.RecordConfig) (core.Config, *checkpoint.Journal, error) {
	cfg := core.DefaultConfig()
	cfg.Slaves = rc.Slaves
	cfg.Speculative = rc.Speculative
	cfg.L15Banks = rc.L15Banks
	cfg.MemBanks = rc.MemBanks
	cfg.Optimize = rc.Optimize
	cfg.ConservativeFlags = !rc.Optimize
	cfg.Morph = rc.Morph
	cfg.MorphThreshold = rc.MorphThreshold
	cfg.MaxCycles = rc.MaxCycles
	if rc.FaultPlan != "" {
		plan, err := fault.ParsePlan(rc.FaultPlan)
		if err != nil {
			return cfg, nil, fmt.Errorf("record carries a bad fault plan: %w", err)
		}
		plan.Seed = rc.FaultSeed
		cfg.Fault = plan
		cfg.FaultRecovery = rc.FaultRecovery
	}
	cfg.Recovery = core.RecoveryMode(rc.Recovery)
	cfg.CheckpointInterval = rc.CheckpointInterval
	j := &checkpoint.Journal{}
	cfg.Journal = j
	return cfg, j, nil
}
