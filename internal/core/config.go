// Package core wires the parallel dynamic binary translation engine
// onto the simulated Raw machine: the runtime-execution tile kernel
// (dispatch loop + L1 code cache + tile data cache), the manager tile
// (L2 code cache, speculative translation queues, dynamic
// reconfiguration), translation slave tiles, banked L1.5 code cache
// tiles, the MMU/TLB tile, L2 data cache bank tiles, and the syscall
// proxy tile — the block diagram of the paper's Figure 3.
package core

import (
	"fmt"
	"io"

	"tilevm/internal/checkpoint"
	"tilevm/internal/fault"
	"tilevm/internal/raw"
	"tilevm/internal/trace"
	"tilevm/internal/translate"
)

// RecoveryMode selects how the manager handles a dead worker whose
// excision would lose state.
type RecoveryMode uint8

const (
	// RecoverExcise morphs around the failure in place: the dead tile
	// is cut out of the virtual architecture and any dirty lines in a
	// dead bank are lost (counted as WritebacksLost). This is PR 1's
	// lossy behavior and the default.
	RecoverExcise RecoveryMode = iota
	// RecoverRollback restores the last checkpoint when excision would
	// lose writebacks, re-morphs to the surviving topology and
	// re-executes, so the guest-visible final state is bit-identical to
	// a fault-free run.
	RecoverRollback
)

// ParseRecoveryMode parses the -recovery flag values.
func ParseRecoveryMode(s string) (RecoveryMode, error) {
	switch s {
	case "", "excise":
		return RecoverExcise, nil
	case "rollback":
		return RecoverRollback, nil
	}
	return 0, fmt.Errorf("core: unknown recovery mode %q (want excise or rollback)", s)
}

func (m RecoveryMode) String() string {
	if m == RecoverRollback {
		return "rollback"
	}
	return "excise"
}

// Config selects a virtual architecture: how the 16 tiles are
// provisioned between functions. The paper's experiments sweep these
// knobs (Figures 4, 5, 8, 9, 10).
type Config struct {
	Params raw.Params

	// Slaves is the number of translation slave tiles (1..9).
	Slaves int
	// Speculative enables run-ahead translation; false is the paper's
	// "conservative translator" baseline.
	Speculative bool
	// L15Banks is the number of L1.5 code cache bank tiles (0, 1, 2).
	L15Banks int
	// MemBanks is the number of L2 data cache bank tiles (1 or 4).
	MemBanks int
	// Optimize runs the optimizer on every translated block.
	Optimize bool
	// ConservativeFlags disables cross-block dead-flag elimination.
	ConservativeFlags bool

	// Tier0 enables the IR-less template translation tier: blocks in
	// the templated subset are first translated by the cheap tier-0
	// path and re-translated by the optimizing tier once hot (tier-up).
	Tier0 bool
	// TierUpThreshold is the retired-host-instruction count at which a
	// tier-0 block is promoted to the optimizing tier (0 = default).
	TierUpThreshold uint64
	// WarmupInsts, when nonzero, arms the warmup probe: the cycle at
	// which the exec tile has retired this many host instructions is
	// recorded in metrics.WarmupCycles (the cold-start metric).
	WarmupInsts uint64

	// Morph enables dynamic reconfiguration between (1 mem / 9 trans)
	// and (4 mem / 6 trans); Slaves/MemBanks then give the *initial*
	// configuration (normally 6/4).
	Morph bool
	// MorphThreshold is the translation-queue length above which the
	// manager reconfigures toward translators (paper values: 15, 0, 5).
	MorphThreshold int
	// MorphMinInterval is the hysteresis: minimum cycles between
	// reconfigurations.
	MorphMinInterval uint64

	// Ablation knobs (not part of the paper's sweeps; used by the
	// beyond-the-paper ablation benches).
	//
	// NoChain disables direct-branch chaining in the L1 code cache.
	NoChain bool
	// NoReturnPredictor disables the call-return low-priority queue.
	NoReturnPredictor bool
	// FIFOSpec collapses the prioritized speculation queues to FIFO.
	FIFOSpec bool

	// Fault, if non-nil and non-empty, installs a deterministic seeded
	// fault plan (see internal/fault): tile fail-stops and stalls,
	// message drop/delay/corruption, DRAM read errors. With Fault nil
	// (or empty) no fault code path runs and the machine is bit-identical
	// to a fault-free build.
	Fault *fault.Plan
	// FaultRecovery arms the recovery protocol alongside the fault plan:
	// worker heartbeats, watchdogged request/reply round trips with
	// retry-and-backoff on the execution tile, and manager-driven
	// excision of dead tiles through the morph/flush/remap path. With it
	// false the faults are injected but nothing defends against them —
	// useful for demonstrating the failure mode (typically a diagnosed
	// deadlock).
	FaultRecovery bool

	// Recovery selects lossy excision (default) or checkpoint rollback
	// when a dead bank holds dirty lines. Rollback implies periodic
	// checkpointing and requires FaultRecovery (the detectors).
	Recovery RecoveryMode
	// CheckpointInterval is the capture period in cycles. 0 means
	// checkpointing off, unless Recovery is RecoverRollback, in which
	// case it defaults to DefaultCheckpointInterval.
	CheckpointInterval uint64
	// Journal, if non-nil, receives the run's deterministic event
	// stream (checkpoints, syscalls, injected faults, excisions,
	// rollbacks, final state) for record-replay.
	Journal *checkpoint.Journal

	// MaxCycles is the simulation watchdog (0 = default).
	MaxCycles uint64

	// MaxBlockExecs bounds dispatch-loop iterations (0 = unlimited);
	// used by tests.
	MaxBlockExecs uint64

	// Tracer, if non-nil, records the run's virtual-time timeline (see
	// internal/trace): spans and instants for block dispatch, the code
	// cache hierarchy, the translation pipeline, the memory system, and
	// morph/fault/rollback events, each attributed to its tile, plus
	// interval samples when the tracer was built with a sample window
	// (core.NewTracer). Tracing charges zero virtual cycles and uses
	// only virtual timestamps, so a traced run is cycle-identical to an
	// untraced one; with Tracer nil no tracing code path allocates.
	// Under rollback recovery the tracer spans attempts: events from an
	// aborted attempt stay on the timeline, so the rollback itself is
	// visible.
	Tracer *trace.Tracer

	// DispatchLog, if non-nil, receives one line per dispatch-loop
	// iteration (virtual cycle, guest PC, code-cache level that
	// supplied the block), up to DispatchLogLimit lines (0 = 1000) —
	// a lightweight text alternative to Tracer.
	DispatchLog      io.Writer
	DispatchLogLimit int

	// Memo, if non-nil, is the host's translation memo (translate.Memo):
	// a slave tile asked for a block an earlier run of the same image
	// already translated, from bytes this run has not written since
	// loading, is handed that block instead of translating again. It
	// saves host work only — the tile is charged the same occupancy and
	// sends the same reply — so results are bit-identical with and
	// without it. A memo belongs to a host that keeps its images for
	// many runs (tilevmd, a bench.Suite) and may be shared by concurrent
	// runs; with Memo nil every block is translated where it is needed.
	Memo *translate.Memo

	// Interrupt, if non-nil, lets a host goroutine cancel the run from
	// outside virtual time (wall-clock timeouts, operator cancels): the
	// run stops between event dispatches and returns an error matching
	// core.Interrupted. Partial results are returned alongside it.
	Interrupt *InterruptHandle

	// PanicAtDispatch is a robustness-test hook: when nonzero, the exec
	// tile kernel panics at that dispatch-loop iteration. It exists to
	// prove the panic-containment boundary (sim.PanicError →
	// core.InternalError → a structured job failure in tilevmd) end to
	// end, with the panic raised from a real tile kernel deep inside
	// the simulation rather than a stub.
	PanicAtDispatch uint64

	// SimWorkers is accepted and ignored:
	// benchmark/cmd/tilebench/bench.go assigns it and benchmark/ is frozen.
	SimWorkers int
}

// DefaultConfig is the paper's headline configuration: 6 speculative
// translators, 2-bank L1.5, 4 memory banks, optimization on.
func DefaultConfig() Config {
	return Config{
		Params:           raw.DefaultParams(),
		Slaves:           6,
		Speculative:      true,
		L15Banks:         2,
		MemBanks:         4,
		Optimize:         true,
		MorphThreshold:   5,
		MorphMinInterval: 20_000,
		FaultRecovery:    true,
	}
}

// Fixed tile placement on the 4×4 grid (see DESIGN.md): the execution
// tile sits centrally with the L1.5 banks, manager, and MMU adjacent,
// matching the paper's explicit attention to on-chip layout.
const (
	tileSys     = 0
	tileExec    = 5
	tileManager = 4
	tileMMU     = 6
)

var (
	tilesL15        = []int{1, 9}
	tilePermBank    = 10
	tilesSwitchable = []int{2, 14, 7}
	tilesPermSlave  = []int{3, 8, 11, 12, 13, 15}
)

// placement is the resolved tile role assignment. The service-tile
// fields default to the single-VM constants; fleet mode (fleet.go)
// builds placements over disjoint tile subsets.
type placement struct {
	sys     int
	exec    int
	manager int
	mmu     int
	l15     []int // L1.5 bank tiles in bank order
	banks   []int // L2 data bank tiles in bank order (initial)
	slaves  []int // translation slave tiles (initial)
	// switchable lists the tiles the morph controller retargets.
	switchable []int
	// switchIsBank records the initial role of each switchable tile.
	switchIsBank map[int]bool
	idle         []int
}

// DefaultCheckpointInterval is the capture period armed automatically
// with rollback recovery: frequent enough that re-execution after a
// fault is bounded, sparse enough that host-side capture cost stays
// small. (Capture charges no virtual cycles either way.)
const DefaultCheckpointInterval = 100_000

// DefaultTierUpThreshold is the promotion threshold used when Tier0 is
// enabled without an explicit TierUpThreshold: a block (plus whatever
// chains off its entry) must retire this many host instructions before
// the optimizing tier re-translates it.
const DefaultTierUpThreshold = 10_000

// dropDead removes dead tiles from the role lists, for a rollback
// re-execution attempt: the dead tiles are not spawned at all, and the
// restored machine starts directly in the surviving topology.
func (p *placement) dropDead(dead []int) {
	isDead := make(map[int]bool, len(dead))
	for _, t := range dead {
		isDead[t] = true
	}
	filter := func(ts []int) []int {
		kept := ts[:0]
		for _, t := range ts {
			if !isDead[t] {
				kept = append(kept, t)
			}
		}
		return kept
	}
	p.slaves = filter(append([]int(nil), p.slaves...))
	p.banks = filter(append([]int(nil), p.banks...))
	p.switchable = filter(append([]int(nil), p.switchable...))
}

// place resolves the config to tile assignments.
func place(cfg *Config) (placement, error) {
	p := placement{
		sys:        tileSys,
		exec:       tileExec,
		manager:    tileManager,
		mmu:        tileMMU,
		switchable: tilesSwitchable,
	}
	if cfg.Slaves < 1 || cfg.Slaves > len(tilesPermSlave)+len(tilesSwitchable) {
		return p, fmt.Errorf("core: %d slaves out of range", cfg.Slaves)
	}
	if cfg.L15Banks < 0 || cfg.L15Banks > len(tilesL15) {
		return p, fmt.Errorf("core: %d L1.5 banks out of range", cfg.L15Banks)
	}
	if cfg.MemBanks < 1 || cfg.MemBanks > 1+len(tilesSwitchable) {
		return p, fmt.Errorf("core: %d memory banks out of range", cfg.MemBanks)
	}
	extraSlaves := cfg.Slaves - len(tilesPermSlave)
	if extraSlaves < 0 {
		extraSlaves = 0
	}
	extraBanks := cfg.MemBanks - 1
	if extraSlaves+extraBanks > len(tilesSwitchable) {
		return p, fmt.Errorf("core: %d slaves and %d memory banks exceed the switchable tile pool",
			cfg.Slaves, cfg.MemBanks)
	}
	if cfg.Morph && (cfg.Slaves != 6 || cfg.MemBanks != 4) {
		return p, fmt.Errorf("core: morphing requires the 6-slave/4-bank initial configuration")
	}

	p.l15 = append(p.l15, tilesL15[:cfg.L15Banks]...)
	p.switchIsBank = map[int]bool{}

	if cfg.Morph {
		// Dynamic reconfiguration begins translation-heavy: "when a
		// program begins, the program has not been translated yet,
		// thus most of the silicon resources should be dedicated to
		// translation" (§2.3). The controller hands the switchable
		// tiles to the memory system once the queues drain.
		extraSlaves, extraBanks = len(tilesSwitchable), 0
	}

	n := cfg.Slaves
	if n > len(tilesPermSlave) {
		n = len(tilesPermSlave)
	}
	p.slaves = append(p.slaves, tilesPermSlave[:n]...)
	for i := 0; i < extraSlaves; i++ {
		p.slaves = append(p.slaves, tilesSwitchable[i])
		p.switchIsBank[tilesSwitchable[i]] = false
	}

	p.banks = []int{tilePermBank}
	for i := 0; i < extraBanks; i++ {
		t := tilesSwitchable[len(tilesSwitchable)-1-i]
		p.banks = append(p.banks, t)
		p.switchIsBank[t] = true
	}

	used := map[int]bool{p.sys: true, p.exec: true, p.manager: true, p.mmu: true}
	for _, t := range p.l15 {
		used[t] = true
	}
	for _, t := range p.slaves {
		used[t] = true
	}
	for _, t := range p.banks {
		used[t] = true
	}
	for t := 0; t < 16; t++ {
		if !used[t] {
			p.idle = append(p.idle, t)
		}
	}
	return p, nil
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
		return fmt.Errorf("core: tile fail-stops and morphing are mutually exclusive")
	}
	worker := map[int]bool{}
	for _, t := range pl.slaves {
		worker[t] = true
	}
	for _, t := range pl.banks {
		worker[t] = true
	}
	dead := map[int]bool{}
	for _, f := range cfg.Fault.Fails {
		if !worker[f.Tile] {
			return fmt.Errorf("core: fault plan fail-stops tile %d, which is not a worker (slave/bank) tile", f.Tile)
		}
		dead[f.Tile] = true
	}
	liveSlaves, liveBanks := 0, 0
	for _, t := range pl.slaves {
		if !dead[t] {
			liveSlaves++
		}
	}
	for _, t := range pl.banks {
		if !dead[t] {
			liveBanks++
		}
	}
	if liveSlaves == 0 || liveBanks == 0 {
		return fmt.Errorf("core: fault plan leaves %d live slaves and %d live banks; need at least one of each",
			liveSlaves, liveBanks)
	}
	return nil
}

// l15BankFor selects the L1.5 bank servicing a guest PC. The exec tile
// and the manager must agree on this mapping.
func l15BankFor(pc uint32, banks int) int {
	if banks <= 1 {
		return 0
	}
	return int(pc>>6) % banks
}
