// Package raw models the Raw tiled processor: a grid of MIPS-like tiles
// joined by dynamic networks, with software-managed instruction memory,
// per-tile data caches, and shared off-chip DRAM. It layers tile-to-tile
// messaging on the deterministic discrete-event kernel in internal/sim.
package raw

import (
	"fmt"

	"tilevm/internal/fault"
	"tilevm/internal/sim"
	"tilevm/internal/trace"
)

// Machine is one simulated Raw chip.
type Machine struct {
	Params Params
	Sim    *sim.Simulator
	inbox  []*sim.Port
	busy   []uint64

	// Faults, if non-nil, injects the configured fault plan into the
	// dynamic network and the tile scheduler. When nil (the default)
	// no fault code path runs, so a fault-free machine is bit-identical
	// to one built before this field existed.
	Faults *fault.Injector

	// OnDrop, if non-nil, is called with the payload of every message
	// the injector drops at the send site. A dropped message is never
	// enqueued, so at that moment the sender holds the only reference
	// and pooled payloads can be recycled immediately — unlike corrupted
	// messages, which stay aliased by the in-flight Corrupted wrapper
	// until the receiver consumes it.
	OnDrop func(payload any)

	// trc mirrors Sim.Trace for the Tick/Advance hot path (one field
	// load instead of two). Set through SetTracer; nil means tracing
	// off, and every emission below is guarded by a nil test.
	trc *trace.Tracer
}

// Corrupted wraps a payload mangled in flight. The model is a detected
// transmission error: the receiver's network interface flags the CRC
// mismatch and the kernel discards the message, so a corrupted message
// costs its delivery (and any retry by the sender) but never delivers
// wrong data. Kernels discard it by not matching it in their payload
// type switches.
type Corrupted struct{ Payload any }

// NewMachine builds a machine with one inbox port per tile.
func NewMachine(p Params) *Machine {
	m := &Machine{
		Params: p,
		Sim:    sim.New(),
		inbox:  make([]*sim.Port, p.Tiles()),
		busy:   make([]uint64, p.Tiles()),
	}
	for i := range m.inbox {
		m.inbox[i] = m.Sim.NewPort(fmt.Sprintf("tile%d.in", i))
	}
	return m
}

// Inbox returns tile id's message port.
func (m *Machine) Inbox(id int) *sim.Port { return m.inbox[id] }

// SetTileShard assigns tile id's inbox port to a simulation shard.
// Callers partitioning the machine into independent shards must also
// place the tile's kernel process on the same shard.
func (m *Machine) SetTileShard(id, shard int) { m.inbox[id].SetShard(shard) }

// SetTracer installs a virtual-time tracer on the machine and its
// simulation kernel. Tile busy cycles accrued through Tick/Advance
// feed the tracer's interval sampler (per-tile occupancy per window).
// Safe to call with nil (tracing off, the default).
func (m *Machine) SetTracer(t *trace.Tracer) {
	m.trc = t
	m.Sim.Trace = t
}

// SpawnTile registers a kernel process for a tile. The body receives a
// TileCtx bound to the tile's inbox and grid position. The returned
// process handle lets host-side supervisors daemon-mark or inspect the
// kernel (fleet quarantine uses this to excuse a dead slot's tiles from
// deadlock detection).
func (m *Machine) SpawnTile(id int, name string, body func(*TileCtx)) *sim.Proc {
	return m.Sim.Spawn(fmt.Sprintf("%s@%d", name, id), func(p *sim.Proc) {
		body(&TileCtx{M: m, Tile: id, P: p})
	})
}

// SpawnTileHandler registers a run-to-completion kernel for a tile that
// only ever answers messages (sim.SpawnHandler): start runs at the
// tile's first dispatch, handle once per message or sim.Timeout; neither
// may block. Tile faults apply between a delivery and handle as
// faultCheck applies them between Recv and a kernel's body: a pending
// stall is charged and the delivery made again when it has elapsed, and
// from its fail-stop on the tile swallows every delivery, daemon-marked.
func (m *Machine) SpawnTileHandler(id int, name string, start func(*TileCtx), handle func(*TileCtx, sim.Msg)) *sim.Proc {
	c := &TileCtx{M: m, Tile: id}
	stalled, dead := false, false
	c.P = m.Sim.SpawnHandler(fmt.Sprintf("%s@%d", name, id), m.inbox[id],
		func(*sim.Proc) { start(c) },
		func(p *sim.Proc, msg sim.Msg) {
			if f := m.Faults; f != nil {
				if dead {
					return
				}
				if !stalled {
					if d := f.StallTake(id, p.Now()); d > 0 {
						stalled = true
						c.Tick(d)
						p.Redeliver(msg)
						return
					}
				}
				stalled = false // msg is back from its stall
				if dead = f.FailedAt(id, p.Now()); dead {
					p.SetDaemon(true)
					return
				}
			}
			handle(c, msg)
		})
	return c.P
}

// TileCtx is the execution context of a tile kernel: the process, the
// tile id, and messaging helpers that charge network latency.
type TileCtx struct {
	M    *Machine
	Tile int
	P    *sim.Proc
}

// Send transmits a payload of the given size in words to another tile,
// charging header, per-hop, and serialization latency. The sender's
// accrued local time is the departure time. Under fault injection a
// message may be dropped, delayed, or corrupted in flight.
func (c *TileCtx) Send(to int, payload any, words int) {
	arrival := c.P.Now() + c.M.Params.NetLat(c.Tile, to, words)
	if f := c.M.Faults; f != nil {
		v := f.OnMessage(c.Tile, to, uint64(c.P.Now()))
		if v.Drop {
			if c.M.OnDrop != nil {
				c.M.OnDrop(payload)
			}
			return
		}
		if v.Corrupt {
			payload = Corrupted{Payload: payload}
		}
		arrival += v.Delay
	}
	// Routed through the sending process so that a send to a tile of
	// another shard panics under the sender's name
	// (sim.Proc.SendPort); on the same shard this is exactly Port.Send.
	c.P.SendPort(c.M.inbox[to], c.Tile, payload, arrival)
}

// faultCheck applies tile-level faults at a scheduling point: pending
// transient stalls are charged, and a fail-stopped tile drops into a
// permanent inbox-draining loop (fail-stop semantics: messages to a
// dead tile vanish; the dead tile never speaks again). The drain loop
// marks the process as a daemon so a machine idling around a dead tile
// is not misreported as deadlocked.
func (c *TileCtx) faultCheck() {
	f := c.M.Faults
	if f == nil {
		return
	}
	if d := f.StallTake(c.Tile, c.P.Now()); d > 0 {
		c.Advance(d)
	}
	if f.FailedAt(c.Tile, c.P.Now()) {
		c.P.SetDaemon(true)
		inbox := c.M.Inbox(c.Tile)
		for {
			c.P.Recv(inbox)
		}
	}
}

// Recv blocks until a message arrives at this tile.
func (c *TileCtx) Recv() sim.Msg {
	m := c.P.Recv(c.M.Inbox(c.Tile))
	c.faultCheck()
	return m
}

// RecvDeadline waits for a message until the deadline.
func (c *TileCtx) RecvDeadline(deadline sim.Time) (sim.Msg, bool) {
	m, ok := c.P.RecvDeadline(c.M.Inbox(c.Tile), deadline)
	c.faultCheck()
	return m, ok
}

// Now returns the tile's local virtual time.
func (c *TileCtx) Now() sim.Time { return c.P.Now() }

// Tick accrues local busy cycles (counted toward the tile's
// utilization). With a tracer installed the cycles also feed the
// per-tile occupancy sampler, attributed to the window containing the
// tile's current local time.
func (c *TileCtx) Tick(d uint64) {
	c.M.busy[c.Tile] += d
	if c.M.trc != nil {
		c.M.trc.Busy(c.Tile, c.P.Now(), d)
	}
	c.P.Tick(d)
}

// Advance accrues d cycles and yields to the scheduler.
func (c *TileCtx) Advance(d uint64) {
	c.M.busy[c.Tile] += d
	if c.M.trc != nil {
		c.M.trc.Busy(c.Tile, c.P.Now(), d)
	}
	c.P.Advance(d)
}

// Sync yields until all accrued local cycles have elapsed.
func (c *TileCtx) Sync() { c.P.Sync() }

// Stop ends the whole machine simulation.
func (c *TileCtx) Stop() { c.P.Stop() }

// BusyCycles returns the per-tile busy-cycle counters (occupied
// cycles, including stalls on in-flight results; waiting on the
// network does not count).
func (m *Machine) BusyCycles() []uint64 {
	out := make([]uint64, len(m.busy))
	copy(out, m.busy)
	return out
}

// Run starts all tile kernels and runs to completion.
func (m *Machine) Run() error { return m.Sim.Run() }
