package core

import (
	"errors"
	"fmt"

	"tilevm/internal/cachesim"
	"tilevm/internal/checkpoint"
	"tilevm/internal/codecache"
	"tilevm/internal/dcache"
	"tilevm/internal/guest"
	"tilevm/internal/metrics"
	"tilevm/internal/mmu"
	"tilevm/internal/raw"
	"tilevm/internal/sim"
	"tilevm/internal/translate"
)

// Result is the outcome of running a guest image on the machine.
type Result struct {
	Cycles   uint64
	ExitCode int32
	Stdout   string
	M        metrics.Set
	// StateHash condenses the guest-visible final state (registers,
	// flags, PC, exit status, stdout, memory contents); two runs with
	// equal hashes ended bit-identically.
	StateHash uint64
	// TileBusy is the per-tile busy-cycle count (index = tile id);
	// divide by Cycles for utilization. It covers the whole run, the
	// work a rollback re-executes included.
	TileBusy []uint64
}

// engine is the state of one guest admission to a slot (fleet.go).
// The discrete-event simulator executes exactly one tile kernel at a
// time, so this state needs no locking.
type engine struct {
	cfg Config
	pl  placement
	// slot is the slot's live placement: the tiles it still has, which
	// a fail-stop or an excision shrinks for every later admission.
	slot  *placement
	m     *raw.Machine
	img   *guest.Image // what proc was loaded from
	proc  *guest.Process
	tr    *translate.Translator
	stats metrics.Set

	execErr    error
	stopCycles uint64
	mgr        *managerState
	pool       msgPool
	// onExit runs at guest exit: the fleet's bookkeeping, which stops
	// the simulation once every guest is terminal.
	onExit func(*raw.TileCtx)
	// vmLabel tags this engine's trace rows with its guest index in a
	// fleet of more than one guest; Run's rows carry none.
	vmLabel string
	// cancelled marks this engine's guest as aborted: by the fleet
	// supervisor (quarantine), by its manager (rollback) or by its exec
	// tile (deadline). It is the one cancel signal: the exec kernel
	// leaves chained code at its next jump and its dispatch loop at the
	// next boundary, and the manager dispatches no more work, so a
	// quarantined slot's daemon tiles finish what they hold and go quiet
	// instead of speculating on for a guest that is gone. It is never set
	// on a run without a fault plan or deadline.
	cancelled bool
	// deadline is the guest's absolute virtual-cycle deadline (0 =
	// none). The exec kernel cancels the guest at its first dispatch
	// boundary or chained jump past it.
	deadline uint64

	// tabs are the slot's code-path tables, lent to this admission
	// (slotTables): the block ids, the L1, and the self-modifying-code
	// page registry.
	tabs   *slotTables
	smcGen uint64

	// recovery arms the recovery protocol — heartbeats, the manager's
	// failure detector and excision — under a plan with a fail clause,
	// in Run and in a carved fleet alike. Without it none of those paths
	// execute, so a stall-only plan only stalls tiles, and fault-free
	// runs stay bit-identical to the pre-fault engine.
	recovery bool
	// bankOf lets the manager see whether a dead bank holds dirty lines
	// (and so needs a rollback) at excision time; registered by each
	// worker under the recovery protocol. Single-threaded in virtual
	// time like the rest.
	bankOf []*dcache.Bank

	// Checkpoint/rollback state. ck drives the capture cadence (nil
	// when checkpointing is off); restore is the snapshot this admission
	// re-executes from (nil when it starts from the image);
	// restoreBlocks holds the re-translated code cache contents for the
	// restore, by PC; rollback is set by the manager when a dead bank holds
	// dirty lines, which excision in place would lose, and cancels the
	// admission so the slot re-admits the guest from its checkpoint.
	ck            *checkpoint.Checkpointer
	restore       *checkpoint.State
	restoreBlocks []restoredBlock
	rollback      *rollbackReq
	// mmuLive is the MMU tile kernel's live state, registered so the
	// exec-tile capture can snapshot it.
	mmuLive *mmu.MMU
}

// slotTables are the code path's per-guest tables, which a slot keeps
// across its admissions (DESIGN.md §7 "Code-path storage"): the intern
// table that gives each guest block PC its dense id, the execution
// tile's L1, and the self-modifying-code page registry — the 4KB pages
// holding translated code, read by the exec tile on every guest store,
// and the SMC generation of each page's last invalidation. The exec
// tile's data cache (dl1) is kept beside them, emptied each time the
// exec kernel starts. The L1.5 banks, the L2 data banks and the manager
// keep their own tables the same way, in their tile kernels.
type slotTables struct {
	owner     *engine
	ids       *codecache.IDs
	l1        *codecache.L1
	dl1       *cachesim.Cache
	codePages pageMap[bool]
	pageInval pageMap[uint64]
}

func newSlotTables(p *raw.Params) *slotTables {
	ids := codecache.NewIDs()
	return &slotTables{
		ids: ids,
		l1:  codecache.NewL1(p.IMemBytes, ids),
		dl1: cachesim.New(p.DCacheBytes, p.DCacheWays, p.DCacheLine),
	}
}

// bind lends the tables to e, emptying them, contents only, the first
// time e asks. The first tile of an admission to start asks first: the
// exec tile at the run's start, the manager at a hand-off, which is
// also the first point at which the previous admission's manager no
// longer writes them.
func (t *slotTables) bind(e *engine) {
	if t.owner == e {
		return
	}
	t.owner = e
	t.ids.Reset()
	t.l1.Reset()
	t.codePages.reset()
	t.pageInval.reset()
}

// pageMap is a table over the 2^20 4KB guest pages, two-level like
// guest.Memory: a directory of 256 leaves of 4096 pages, a leaf
// allocated at the first write into its 16MB region, so a run pays for
// the regions its code occupies. The zero V reads as absent.
type pageMap[V comparable] struct {
	dir  [256]*[4096]V
	used []int // the directory slots holding a leaf
}

func (m *pageMap[V]) get(pg uint32) V {
	if l := m.dir[pg>>12&0xff]; l != nil {
		return l[pg&0xfff]
	}
	var zero V
	return zero
}

func (m *pageMap[V]) set(pg uint32, v V) {
	l := m.dir[pg>>12&0xff]
	if l == nil {
		l = new([4096]V)
		m.dir[pg>>12&0xff] = l
		m.used = append(m.used, int(pg>>12&0xff))
	}
	l[pg&0xfff] = v
}

// reset empties the table and keeps its leaves.
func (m *pageMap[V]) reset() {
	for _, d := range m.used {
		clear(m.dir[d][:])
	}
}

// pages returns the pages holding a value, in ascending order.
func (m *pageMap[V]) pages() []uint32 {
	var zero V
	var out []uint32
	for d, l := range m.dir {
		if l == nil {
			continue
		}
		for i, v := range l {
			if v != zero {
				out = append(out, uint32(d)<<12|uint32(i))
			}
		}
	}
	return out
}

// rollbackReq records a manager-detected failure that requires
// rollback: the dead tile and the detection cycle.
type rollbackReq struct {
	tile   int
	detect uint64
}

// jadd appends to the run's journal, if one is configured.
func (e *engine) jadd(kind checkpoint.EventKind, cycle, a, b uint64) {
	e.cfg.Journal.Add(kind, cycle, a, b)
}

// Run executes a guest image under the given virtual architecture
// configuration and returns cycle counts and metrics. The machine is a
// fleet of one: one slot laid out by place, the fixed 4×4 layout, run
// by the same scheduler, recovery and result assembly as RunFleet.
// Validate is its one gate.
//
// Under a fault plan a dead slave or clean bank is excised in place,
// and a dead bank holding dirty lines rolls the guest back: the slot
// re-admits it from its latest checkpoint (DESIGN.md §8).
func Run(img *guest.Image, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	fl, simErr := runFleet([]*guest.Image{img}, cfg, FleetConfig{}, []placement{place(&cfg)})
	e := fl.engines[0]
	if e.stopCycles == 0 {
		e.stopCycles = fl.m.Sim.Now()
	}
	res := e.result()
	res.TileBusy = fl.m.BusyCycles()
	if inj := fl.m.Faults; inj != nil {
		fc := inj.Counts()
		res.M.FaultsInjected = fc.Total()
		res.M.TileFails = fc.Fails
		res.M.TileStalls = fc.Stalls
	}
	e.jadd(checkpoint.EvFinal, e.stopCycles, uint64(uint32(res.ExitCode)), res.StateHash)
	// Partial results are returned alongside the error so callers can
	// diagnose watchdog/abort conditions.
	if simErr != nil {
		var perr *sim.PanicError
		if errors.As(simErr, &perr) {
			return res, fl.attributePanic(perr)
		}
		return res, fmt.Errorf("core: simulation failed: %w", simErr)
	}
	if e.execErr != nil {
		return res, fmt.Errorf("core: guest execution failed: %w", e.execErr)
	}
	return res, nil
}

// tileClock adapts a tile context to the execution engine's Clock.
type tileClock struct{ c *raw.TileCtx }

func (t tileClock) Now() uint64   { return t.c.Now() }
func (t tileClock) Tick(d uint64) { t.c.Tick(d) }
