// Package metrics collects the counters the evaluation reports are
// built from (Figures 4-11). The engine fills a Set at the end of a
// run; the simulation is single-threaded in virtual time, so counters
// need no synchronization.
package metrics

// Set is the full counter set of one run.
type Set struct {
	// Time.
	Cycles uint64

	// Execution.
	BlockDispatches uint64 // dispatch-loop iterations
	HostInsts       uint64 // host instructions retired on the exec tile
	Syscalls        uint64
	Assists         uint64

	// Code caches.
	L1CLookups uint64
	L1CHits    uint64
	L1CFlushes uint64
	Chains     uint64
	L15Lookups uint64
	L15Hits    uint64
	L2CAccess  uint64 // manager L2 code cache accesses
	L2CMisses  uint64 // → translations demanded
	L2CStores  uint64

	// Translation.
	Translations    uint64 // blocks translated (including speculative)
	TransGuestInsts uint64 // guest instructions translated
	DemandMisses    uint64 // exec-visible L2 code cache misses
	SpecWasted      uint64 // speculative translations never demanded

	// Data memory.
	DL1Accesses uint64 // guest accesses on the exec tile
	DL1Misses   uint64 // tile D-cache misses → memory system
	L2DRequests uint64
	L2DMisses   uint64 // bank misses → DRAM
	TLBMisses   uint64

	// Reconfiguration.
	Reconfigs       uint64
	MorphFlushLines uint64

	// Self-modifying code.
	SMCInvalidations uint64

	// Fault injection and recovery (all zero on fault-free runs).
	FaultsInjected uint64 // total faults of all kinds actually injected
	TileFails      uint64 // fail-stops observed
	TileStalls     uint64 // transient stalls charged
	RoleRemaps     uint64 // dead tiles excised from the virtual architecture
	RecoveryCycles uint64 // detection-to-remap latency, summed over excisions

	// Checkpoint/rollback recovery (all zero unless the fault plan has a
	// fail clause).
	Checkpoints    uint64 // snapshots captured
	Rollbacks      uint64 // re-executions from a checkpoint
	ReexecCycles   uint64 // cycles between checkpoint and fault detection, re-executed
	RollbackCycles uint64 // modeled restore cost charged between detection and restart
}

// FleetSet is the fleet-level counter set: admission, retry, and
// fault-policy outcomes that have no single-guest equivalent. All
// fields stay zero on a fault-free, deadline-free fleet run.
type FleetSet struct {
	GuestsFinished         uint64 // guests that ran to a clean exit
	GuestsRetried          uint64 // re-admissions after a slot quarantine
	GuestsAborted          uint64 // guests terminal after exhausting MaxAttempts
	GuestsDeadlineExceeded uint64 // guests cancelled at their deadline
	SlotsQuarantined       uint64 // slots excised from the carve
	DeadlineMet            uint64 // finished guests that beat their deadline
	DeadlineTotal          uint64 // guests that had a deadline at all
	GoodputInsts           uint64 // host instructions retired by finished guests
}

// SLOAttainment is the fraction of deadline-carrying guests that
// finished in time; 1 when no guest had a deadline (vacuously met).
func (f *FleetSet) SLOAttainment() float64 {
	if f.DeadlineTotal == 0 {
		return 1
	}
	return float64(f.DeadlineMet) / float64(f.DeadlineTotal)
}

// Goodput is useful host instructions per cycle of makespan: work
// from aborted or deadline-killed attempts counts for nothing.
func (f *FleetSet) Goodput(makespan uint64) float64 {
	if makespan == 0 {
		return 0
	}
	return float64(f.GoodputInsts) / float64(makespan)
}

// L2CAccessesPerCycle is Figure 6's metric.
func (s *Set) L2CAccessesPerCycle() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.L2CAccess) / float64(s.Cycles)
}

// L2CMissRate is Figure 7's metric: misses per L2 code cache access.
func (s *Set) L2CMissRate() float64 {
	if s.L2CAccess == 0 {
		return 0
	}
	return float64(s.L2CMisses) / float64(s.L2CAccess)
}

// DL1MissRate is the exec-tile data cache miss rate.
func (s *Set) DL1MissRate() float64 {
	if s.DL1Accesses == 0 {
		return 0
	}
	return float64(s.DL1Misses) / float64(s.DL1Accesses)
}

// L15HitRate is the fraction of L1.5 lookups that hit.
func (s *Set) L15HitRate() float64 {
	if s.L15Lookups == 0 {
		return 0
	}
	return float64(s.L15Hits) / float64(s.L15Lookups)
}
