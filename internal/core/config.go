// Package core wires the parallel dynamic binary translation engine
// onto the simulated Raw machine: the runtime-execution tile kernel
// (dispatch loop + L1 code cache + tile data cache), the manager tile
// (L2 code cache, speculative translation queues, dynamic
// reconfiguration), translation slave tiles, banked L1.5 code cache
// tiles, the MMU/TLB tile, L2 data cache bank tiles, and the syscall
// proxy tile — the block diagram of the paper's Figure 3.
package core

import (
	"tilevm/internal/checkpoint"
	"tilevm/internal/fault"
	"tilevm/internal/raw"
	"tilevm/internal/trace"
	"tilevm/internal/translate"
)

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

	// Fault, if non-nil and non-empty, installs a deterministic fault
	// plan (see internal/fault): tile fail-stops and stalls. The plan is
	// the whole fault configuration. A stall only costs its tile time:
	// requests are sent once, and a stalled tile answers late. A fail
	// clause arms the recovery protocol: worker heartbeats, the
	// manager's failure detector, and excision of dead tiles through
	// the morph/flush/remap path, each excision waking the execution
	// tile to re-send a line fill the dead tile held. It also arms
	// checkpoints every DefaultCheckpointInterval cycles: a dead bank
	// holding dirty lines rolls the guest back to the last one, and so
	// does a fleet retry.
	// With Fault nil (or empty) no fault code path runs and the machine
	// is bit-identical to a fault-free build.
	Fault *fault.Plan
	// Journal, if non-nil, receives the run's deterministic event
	// stream (checkpoints, syscalls, injected faults, excisions,
	// rollbacks, final state) for record-replay.
	Journal *checkpoint.Journal

	// MaxCycles is the simulation watchdog (0 = default).
	MaxCycles uint64

	// Tracer, if non-nil, records the run's virtual-time timeline (see
	// internal/trace): spans and instants for block dispatch, the code
	// cache hierarchy, the translation pipeline, the memory system, and
	// morph/fault/rollback events, each attributed to its tile, plus
	// interval samples when the tracer was built with a sample window
	// (core.NewTracer). Tracing charges zero virtual cycles and uses
	// only virtual timestamps, so a traced run is cycle-identical to an
	// untraced one; with Tracer nil no tracing code path allocates.
	// Across a rollback the tracer spans admissions: events from the
	// cancelled one stay on the timeline, so the rollback itself is
	// visible.
	Tracer *trace.Tracer

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

// fillDefaults sets the zero watchdog to its default.
func (cfg *Config) fillDefaults() {
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 20_000_000_000
	}
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

// DefaultCheckpointInterval is the capture period armed by a fault
// plan with a fail clause: frequent enough that re-execution after a
// fault is bounded, sparse enough that host-side capture cost stays
// small. (Capture charges no virtual cycles either way.)
const DefaultCheckpointInterval = 100_000

// place resolves a valid config (Validate) to tile assignments.
func place(cfg *Config) placement {
	p := placement{
		sys:        tileSys,
		exec:       tileExec,
		manager:    tileManager,
		mmu:        tileMMU,
		switchable: tilesSwitchable,
	}
	extraSlaves := max(cfg.Slaves-len(tilesPermSlave), 0)
	extraBanks := cfg.MemBanks - 1
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

	p.slaves = append(p.slaves, tilesPermSlave[:min(cfg.Slaves, len(tilesPermSlave))]...)
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
	return p
}

// l15BankFor selects the L1.5 bank servicing a guest PC. The exec tile
// and the manager must agree on this mapping.
func l15BankFor(pc uint32, banks int) int {
	if banks <= 1 {
		return 0
	}
	return int(pc>>6) % banks
}
