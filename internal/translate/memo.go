package translate

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"tilevm/internal/rawisa"
)

// ImageMemory is the guest memory a memoized translation reads: a
// CodeReader that can also say whether a range still holds exactly the
// bytes the image was loaded with (guest.Memory.Pristine).
type ImageMemory interface {
	CodeReader
	Pristine(addr uint32, n int) bool
}

// Memo keeps the translations of the images a host runs again and
// again — the daemon's workload catalogue, a figure suite's benchmarks —
// so that each block of an image is translated once per host, not once
// per run. It is the host-side counterpart of the manager's L2 code
// cache, which does the same within one run; it models nothing and no
// virtual cycle depends on it.
//
// An entry is keyed by (image, guest PC, tier asked for, Options) and
// holds the Result together with every code window the translation
// read. A translation is a pure function of its key and of the bytes in
// those windows — which windows it reads is itself decided by bytes
// read earlier — so an entry may stand in for a fresh translation
// exactly when every one of its windows is still pristine in the run at
// hand: the run was loaded from the same image, the windows hold the
// image's bytes, and a translator reading them would make the same
// reads and produce the same block. Anything else (a store or a read(2)
// into a code page, a memory restored from a checkpoint) translates
// from live memory as if there were no memo, and publishes nothing.
//
// A published Result is shared by every run that hits it and by the
// code caches of each, so it is read-only from the moment it is
// returned; the caches copy out of it (codecache.L1.Insert) and never
// write through it.
//
// Entries are never evicted: the owner is a host whose set of images is
// bounded (DESIGN.md §7 "Translation memo"). A Memo is safe for
// concurrent use; the Translator passed to TranslateTier is still one
// per caller.
type Memo struct {
	mu      sync.Mutex
	entries map[memoKey]*memoEntry
	bytes   int

	hits, misses, bypassed atomic.Uint64
}

// NewMemo returns an empty memo.
func NewMemo() *Memo { return &Memo{entries: map[memoKey]*memoEntry{}} }

type memoKey struct {
	image any // the owner's image identity, compared by ==
	pc    uint32
	tier0 bool
	opts  Options
}

type memoEntry struct {
	res     *Result
	windows []codeWindow
}

type codeWindow struct {
	addr uint32
	n    int32
}

// MemoStats counts what a memo has done. Every TranslateTier call that
// succeeds is exactly one of Hits, Misses and Bypassed.
type MemoStats struct {
	// Hits were served from an entry; Misses were translated and
	// published; Bypassed were translated from live memory because a
	// window the block depends on was no longer pristine.
	Hits, Misses, Bypassed uint64
	// Entries and Bytes size the memo (Bytes is the storage the entries
	// own: results, host code, predecoded code, chain and window lists).
	Entries, Bytes int
}

// Stats returns the current counts.
func (mo *Memo) Stats() MemoStats {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	return MemoStats{
		Hits: mo.hits.Load(), Misses: mo.misses.Load(), Bypassed: mo.bypassed.Load(),
		Entries: len(mo.entries), Bytes: mo.bytes,
	}
}

// TranslateTier is t.TranslateTier(mem, addr, tier0) for a memory loaded
// from image, served from the memo when it can be. image is whatever
// the owner uses to tell its images apart (a *guest.Image); it is only
// compared. The result is the same block, bit for bit, with or without
// the memo; one that came from the memo must not be written to.
func (mo *Memo) TranslateTier(t *Translator, image any, mem ImageMemory, addr uint32, tier0 bool) (*Result, error) {
	key := memoKey{image: image, pc: addr, tier0: tier0, opts: t.Opts}
	mo.mu.Lock()
	e := mo.entries[key]
	mo.mu.Unlock()
	if e != nil {
		for _, w := range e.windows {
			if !mem.Pristine(w.addr, int(w.n)) {
				mo.bypassed.Add(1)
				return t.TranslateTier(mem, addr, tier0)
			}
		}
		mo.hits.Add(1)
		return e.res, nil
	}

	rec := windowRecorder{mem: mem, pristine: true}
	rec.windows = rec.buf[:0]
	res, err := t.TranslateTier(&rec, addr, tier0)
	if err != nil {
		return nil, err
	}
	if !rec.pristine {
		mo.bypassed.Add(1)
		return res, nil
	}
	mo.misses.Add(1)
	e = &memoEntry{res: res, windows: append([]codeWindow(nil), rec.windows...)}
	mo.mu.Lock()
	if _, raced := mo.entries[key]; !raced {
		// Two runs of one image can miss on the same block at once;
		// their results are equal and the first one in stays.
		mo.entries[key] = e
		mo.bytes += e.memBytes()
	}
	mo.mu.Unlock()
	return res, nil
}

// memBytes is the storage an entry keeps alive.
func (e *memoEntry) memBytes() int {
	r := e.res
	return int(unsafe.Sizeof(*e)+unsafe.Sizeof(memoKey{})) +
		int(unsafe.Sizeof(*r)+unsafe.Sizeof(*r.Block)+unsafe.Sizeof(*r.Block.Block)) +
		len(r.Code)*int(unsafe.Sizeof(rawisa.Inst{})) +
		r.Pre.Bytes() +
		len(r.Chains)*int(unsafe.Sizeof(ChainSite{})) +
		len(e.windows)*int(unsafe.Sizeof(codeWindow{}))
}

// windowRecorder is the CodeReader a memo miss translates through: it
// lists the windows the translator asked for (a window that starts
// inside or at the end of one already listed extends it) for as long as
// all of them were pristine when read.
type windowRecorder struct {
	mem      ImageMemory
	windows  []codeWindow
	pristine bool
	buf      [8]codeWindow
}

func (r *windowRecorder) CodeWindow(addr uint32, n int) []byte {
	if r.pristine {
		if r.mem.Pristine(addr, n) {
			r.add(addr, n)
		} else {
			r.pristine = false // nothing will be published: stop listing
		}
	}
	return r.mem.CodeWindow(addr, n)
}

func (r *windowRecorder) add(addr uint32, n int) {
	for i := range r.windows {
		w := &r.windows[i]
		if off := int64(addr) - int64(w.addr); off >= 0 && off <= int64(w.n) {
			w.n = max(w.n, int32(off)+int32(n))
			return
		}
	}
	r.windows = append(r.windows, codeWindow{addr: addr, n: int32(n)})
}
