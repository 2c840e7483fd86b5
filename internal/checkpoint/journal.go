package checkpoint

// EventKind classifies journal events. The journal records every
// source of nondeterminism-relevant history in a run: because the
// simulation itself is deterministic given (config, fault plan, seed),
// the journal is pure *output* — replay re-runs the simulation and
// compares journals rather than feeding events back in.
type EventKind uint8

const (
	// EvCheckpoint: A = snapshot sequence number, B = pages captured.
	EvCheckpoint EventKind = iota + 1
	// EvSyscall: A = syscall number, B = return value (EAX). The
	// guest-visible event stream; divergence here means the recovered
	// run's architectural history differs from the reference.
	EvSyscall
	// EvFault: A = fault.Kind, B = tile.
	EvFault
	// EvExcise: A = tile excised, B = 1 if the excision triggered a
	// rollback instead of in-place recovery.
	EvExcise
	// EvRollback: A = dead tile, B = checkpoint cycle restored to.
	EvRollback
	// EvFinal: A = exit code, B = final state hash.
	EvFinal
)

func (k EventKind) String() string {
	switch k {
	case EvCheckpoint:
		return "checkpoint"
	case EvSyscall:
		return "syscall"
	case EvFault:
		return "fault"
	case EvExcise:
		return "excise"
	case EvRollback:
		return "rollback"
	case EvFinal:
		return "final"
	}
	return "unknown"
}

// Event is one journal entry.
type Event struct {
	Cycle uint64
	Kind  EventKind
	A, B  uint64
}

// Journal accumulates events in simulation order. A nil *Journal is a
// valid sink that records nothing, so instrumented code never needs a
// nil check.
type Journal struct {
	Events []Event
}

// Add appends an event.
func (j *Journal) Add(kind EventKind, cycle, a, b uint64) {
	if j == nil {
		return
	}
	j.Events = append(j.Events, Event{Cycle: cycle, Kind: kind, A: a, B: b})
}

// FirstDivergence bisects to the first index at which the two event
// streams differ, or -1 if they are identical. It binary-searches the
// longest common prefix over precomputed rolling hashes, so comparing
// two multi-million-event journals does O(n) hashing once and O(log n)
// probes — the "bisect to first divergent event" primitive behind
// tilevm -replay.
func FirstDivergence(a, b []Event) int {
	ha, hb := prefixHashes(a), prefixHashes(b)
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	// Invariant: prefixes of length lo are equal, length hi+1 are not
	// (or hi == n). Find the longest equal prefix.
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if ha[mid] == hb[mid] {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	if lo == len(a) && lo == len(b) {
		return -1
	}
	return lo
}

// prefixHashes returns h[i] = hash of evs[:i].
func prefixHashes(evs []Event) []uint64 {
	out := make([]uint64, len(evs)+1)
	h := hashInit()
	out[0] = h
	for i, e := range evs {
		h = hashU64(h, e.Cycle)
		h = hashU64(h, uint64(e.Kind))
		h = hashU64(h, e.A)
		h = hashU64(h, e.B)
		out[i+1] = h
	}
	return out
}
