package raw

import (
	"fmt"
	"strconv"
	"strings"
)

// Params collects every timing and capacity constant of the modeled Raw
// machine and of the DBT runtime routines that run on it. The defaults
// reproduce the architecture intrinsics the paper reports (Figure 11)
// and the prototype's structural constants (§3). All latencies and
// occupancies are in cycles.
//
// Latency vs. occupancy: latency is when the result is available to a
// dependent instruction; occupancy is how long the issuing unit is busy
// (cannot issue further work). The emulator's guest-load L1 hit costs
// latency 6 / occupancy 4 because address translation is done in
// software inline (no MMU hardware on Raw).
type Params struct {
	// Grid geometry.
	Width, Height int

	// Network: per-hop wire latency and fixed header cost for a dynamic
	// network message, plus per-word serialization cost.
	NetHopLat    uint64
	NetHeaderLat uint64
	NetWordLat   uint64

	// Per-tile memories.
	IMemBytes   int // software-managed instruction memory (L1 code cache budget)
	DCacheBytes int // hardware-managed data cache
	DCacheWays  int
	DCacheLine  int

	// Guest memory access intrinsics on the execution tile
	// (paper Fig. 11, "Raw Emulator" column).
	GuestL1HitLat uint64 // latency of a guest load hitting the tile D-cache
	GuestL1HitOcc uint64 // occupancy of the same (software translation inline)
	GuestStoreOcc uint64 // occupancy of a guest store hitting the D-cache

	// Pipelined memory system tiles.
	MMULookupOcc  uint64 // MMU/TLB tile service occupancy per request
	TLBMissOcc    uint64 // extra occupancy on a TLB miss (software walk)
	TLBEntries    int
	BankLookupOcc uint64 // L2 data bank tag check + SRAM access
	BankLineFill  uint64 // extra cost to fill a line from DRAM on bank miss
	DRAMLat       uint64 // off-chip DRAM access latency
	L2DBankBytes  int    // capacity of one L2 data cache bank tile
	L2DWays       int
	L2DLine       int

	// Code cache hierarchy.
	L1LookupOcc     uint64 // dispatch-loop hash lookup in the L1 code cache
	L1CopyWordOcc   uint64 // cycles per word to copy a block into I-mem
	L1ChainPatchOcc uint64 // cycles to patch one chain site
	L15BankBytes    int    // capacity of one L1.5 code cache bank
	L15LookupOcc    uint64 // L1.5 bank service occupancy per request
	L15WordOcc      uint64 // per-word transfer occupancy out of an L1.5 bank
	L2CLookupOcc    uint64 // manager tile L2 code cache map lookup
	L2CStoreOcc     uint64 // manager occupancy to store a translated block
	L2CWordOcc      uint64 // per-word DRAM traffic cost for L2 code cache data
	L2CodeBytes     int    // total L2 code cache budget in DRAM (105MB)

	// Translator costs (translation slave tiles).
	TransFetchOcc   uint64 // per guest byte fetched for decode
	TransBaseOcc    uint64 // per guest instruction: decode + IR + codegen
	TransOptOcc     uint64 // additional per guest instruction when optimizing
	TransRequestOcc uint64 // manager bookkeeping per translation request

	// Runtime engine costs.
	DispatchOcc  uint64 // dispatch loop iteration on the execution tile
	AssistOcc    uint64 // fixed cost of an interpreter-assist fallback
	SyscallOcc   uint64 // syscall proxy tile service cost
	ExecUnits    int    // issue width of a tile (1: in-order single issue)
	MorphFixed   uint64 // fixed cost to switch a tile's role
	MorphPerLine uint64 // cost per dirty line written back during a flush

	// Recovery-protocol costs and deadlines (consulted only under a
	// fault plan with a fail clause, which arms the protocol; a run
	// without one never reads them, preserving bit-identical fault-free
	// runs). Nothing is re-sent on a timer: the one timeout is the
	// manager's heartbeat detector.
	HeartbeatPeriod  uint64 // cycles between worker-tile heartbeats to the manager
	HeartbeatTimeout uint64 // silence after which the manager declares a worker dead
	HeartbeatOcc     uint64 // worker occupancy to emit one heartbeat
	RecoveryOcc      uint64 // manager bookkeeping to excise a dead tile

	// Rollback recovery: modeled cost to restore the machine from the
	// last checkpoint (fixed protocol overhead plus per guest page
	// reloaded from the DRAM-resident snapshot). Charged as dead time
	// between fault detection and the restart of the re-executed run.
	RollbackFixedOcc   uint64
	RollbackPerPageOcc uint64
}

// DefaultParams returns the modeled Raw prototype: a 4×4 grid with the
// paper's structural constants and Figure 11 intrinsics.
func DefaultParams() Params {
	return Params{
		Width: 4, Height: 4,

		NetHopLat:    1,
		NetHeaderLat: 2,
		NetWordLat:   1,

		IMemBytes:   32 * 1024,
		DCacheBytes: 32 * 1024,
		DCacheWays:  2,
		DCacheLine:  32,

		GuestL1HitLat: 6,
		GuestL1HitOcc: 4,
		GuestStoreOcc: 4,

		MMULookupOcc:  30,
		TLBMissOcc:    40,
		TLBEntries:    64,
		BankLookupOcc: 28,
		BankLineFill:  12,
		DRAMLat:       52,
		L2DBankBytes:  32 * 1024,
		L2DWays:       4,
		L2DLine:       32,

		L1LookupOcc:     20,
		L1CopyWordOcc:   6,
		L1ChainPatchOcc: 6,
		L15BankBytes:    64 * 1024,
		L15LookupOcc:    12,
		L15WordOcc:      3,
		L2CLookupOcc:    40,
		L2CStoreOcc:     40,
		L2CWordOcc:      10,
		L2CodeBytes:     105 * 1024 * 1024,

		TransFetchOcc:   2,
		TransBaseOcc:    60,
		TransOptOcc:     90,
		TransRequestOcc: 12,

		DispatchOcc:  26,
		AssistOcc:    40,
		SyscallOcc:   200,
		ExecUnits:    1,
		MorphFixed:   500,
		MorphPerLine: 24,

		HeartbeatPeriod:  25_000,
		HeartbeatTimeout: 80_000,
		HeartbeatOcc:     4,
		RecoveryOcc:      500,

		RollbackFixedOcc:   25_000,
		RollbackPerPageOcc: 4_000,
	}
}

// Tiles returns the number of tiles in the grid.
func (p *Params) Tiles() int { return p.Width * p.Height }

// XY returns the grid coordinates of tile id.
func (p *Params) XY(id int) (x, y int) { return id % p.Width, id / p.Width }

// TileAt returns the tile id at grid coordinates (x, y).
func (p *Params) TileAt(x, y int) int { return y*p.Width + x }

// ParseGrid parses a fabric size "WxH" (the x in either case), as the
// -grid flag of tilevm and tilevmd takes it. Both sizes must be
// positive; whether the fabric fits a VM slot, or is too large to
// carve, is the placer's question, not the parser's.
func ParseGrid(s string) (w, h int, err error) {
	ws, hs, ok := strings.Cut(strings.ToLower(s), "x")
	if ok {
		w, err = strconv.Atoi(ws)
		if err == nil {
			h, err = strconv.Atoi(hs)
		}
		if err == nil && w > 0 && h > 0 {
			return w, h, nil
		}
	}
	return 0, 0, fmt.Errorf("bad -grid %q, want WxH with positive W and H (e.g. 8x8)", s)
}

// Hops returns the Manhattan distance between two tiles, the hop count
// of a dimension-ordered route on the dynamic network.
func (p *Params) Hops(from, to int) uint64 {
	fx, fy := p.XY(from)
	tx, ty := p.XY(to)
	return uint64(abs(fx-tx) + abs(fy-ty))
}

// NetLat returns the modeled network latency for a message of the given
// payload size in words between two tiles.
func (p *Params) NetLat(from, to, words int) uint64 {
	return p.NetHeaderLat + p.NetHopLat*p.Hops(from, to) + p.NetWordLat*uint64(words)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
