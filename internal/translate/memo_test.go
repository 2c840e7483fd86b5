package translate

import (
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"tilevm/internal/guest"
	"tilevm/internal/workload"
)

// memoCorpus is the addresses of gzip's statically reachable blocks and
// the image they come from.
func memoCorpus(t *testing.T) (*guest.Image, []uint32) {
	t.Helper()
	p, _ := workload.ByName("164.gzip")
	img := p.Build()
	var addrs []uint32
	for _, r := range New(Options{Optimize: true}).Reachable(guest.Load(img).Mem, img.Entry) {
		addrs = append(addrs, r.GuestAddr)
	}
	if len(addrs) < 100 {
		t.Fatalf("corpus of %d blocks", len(addrs))
	}
	return img, addrs
}

// TestMemoServesEqualBlocks: what the memo hands out — translated
// through the recording reader on a miss, shared on a hit — deeply
// equals a direct translation, and a second process of the same image
// translates nothing.
func TestMemoServesEqualBlocks(t *testing.T) {
	img, addrs := memoCorpus(t)
	memo := NewMemo()
	direct, tr := New(Options{Optimize: true}), New(Options{Optimize: true})
	for round := 0; round < 2; round++ {
		mem := guest.Load(img).Mem
		before := memo.Stats()
		for _, pc := range addrs {
			want, err := direct.TranslateFinal(mem, pc)
			if err != nil {
				t.Fatal(err)
			}
			got, err := memo.Translate(tr, img, mem, pc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: block %#x from the memo differs from a direct translation", round, pc)
			}
		}
		st := memo.Stats()
		n := uint64(len(addrs))
		switch {
		case round == 0 && (st.Misses-before.Misses != n || st.Hits != before.Hits):
			t.Errorf("first process: %+v after %+v, want %d misses", st, before, n)
		case round == 1 && (st.Hits-before.Hits != n || st.Misses != before.Misses):
			t.Errorf("second process: %+v after %+v, want %d hits", st, before, n)
		}
		if st.Bypassed != 0 || st.Entries != int(st.Misses) || st.Bytes < int(unsafe.Sizeof(Result{}))*st.Entries {
			t.Errorf("implausible stats %+v", st)
		}
	}
}

// TestMemoKeys: entries of another image and of other options are not
// this translation's entries.
func TestMemoKeys(t *testing.T) {
	img, addrs := memoCorpus(t)
	twin := *img // same bytes, another identity
	memo := NewMemo()
	pc := addrs[0]
	calls := []struct {
		img  *guest.Image
		opts Options
	}{
		{img, Options{Optimize: true}},
		{&twin, Options{Optimize: true}},
		{img, Options{}},
		{img, Options{Optimize: true, ConservativeFlags: true}},
	}
	for i, c := range calls {
		if _, err := memo.Translate(New(c.opts), c.img, guest.Load(c.img).Mem, pc); err != nil {
			t.Fatal(err)
		}
		if st := memo.Stats(); st.Misses != uint64(i+1) || st.Hits != 0 {
			t.Errorf("call %d was served another key's entry: %+v", i, st)
		}
	}
}

// TestMemoStepsAsideForWrittenCode: a page written since loading is
// translated from live memory — the new bytes, not the memo's block —
// whether the entry was there before the write or not, and nothing
// translated from a written page is published.
func TestMemoStepsAsideForWrittenCode(t *testing.T) {
	img, addrs := memoCorpus(t)
	memo := NewMemo()
	tr := New(Options{Optimize: true})
	pc, other := addrs[0], addrs[len(addrs)-1]

	mem := guest.Load(img).Mem
	orig, err := memo.Translate(tr, img, mem, pc)
	if err != nil {
		t.Fatal(err)
	}
	// inc eax; ret — over the block's first bytes.
	mem.WriteBytes(pc, []byte{0x40, 0xC3})
	for _, addr := range []uint32{pc, other} { // one entry present, one absent
		got, err := memo.Translate(tr, img, mem, addr)
		if err != nil {
			t.Fatal(err)
		}
		want, err := New(Options{Optimize: true}).TranslateFinal(mem, addr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("block %#x after a write to its page is not the live translation", addr)
		}
	}
	if got, _ := memo.Translate(tr, img, mem, pc); got.NumGuest != 2 || got == orig {
		t.Errorf("patched block: %d guest instructions, want the 2 written", got.NumGuest)
	}
	if st := memo.Stats(); st.Bypassed != 3 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats %+v, want 3 bypassed and only the first translation published", st)
	}

	// A fresh process of the image still gets the original.
	again, err := memo.Translate(tr, img, guest.Load(img).Mem, pc)
	if err != nil || again != orig {
		t.Errorf("fresh process: got %p (err %v), want the published block %p", again, err, orig)
	}
	// A failed translation is not published and not counted.
	before := memo.Stats()
	const junk = 0x0030_0000
	mem.WriteBytes(junk, []byte{0x0F, 0x05}) // an opcode the decoder rejects
	if _, err := memo.Translate(tr, img, mem, junk); err == nil {
		t.Error("undecodable block translated")
	}
	if st := memo.Stats(); st != before {
		t.Errorf("failed translation moved the stats: %+v after %+v", st, before)
	}
}

// TestMemoWindows: the recorder keeps one window for reads inside or
// abutting one it has, and a separate one for a read elsewhere.
func TestMemoWindows(t *testing.T) {
	img, _ := memoCorpus(t)
	r := windowRecorder{mem: guest.Load(img).Mem, pristine: true}
	r.windows = r.buf[:0]
	for _, w := range []codeWindow{{0x1000, 484}, {0x1010, 19}, {0x11E4, 19}, {0x5000, 19}, {0x11F0, 19}} {
		r.CodeWindow(w.addr, int(w.n))
	}
	want := []codeWindow{{0x1000, 0x1F0 + 19}, {0x5000, 19}}
	if !reflect.DeepEqual(r.windows, want) || !r.pristine {
		t.Errorf("windows %+v pristine=%v, want %+v", r.windows, r.pristine, want)
	}
}

// TestMemoConcurrent: processes of one image on several goroutines,
// each with its own translator and memory, fill and read one memo at
// once (run under -race: make racepar).
func TestMemoConcurrent(t *testing.T) {
	img, addrs := memoCorpus(t)
	memo := NewMemo()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, mem := New(Options{Optimize: true}), guest.Load(img).Mem
			for _, pc := range addrs {
				if _, err := memo.Translate(tr, img, mem, pc); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := memo.Stats()
	if st.Entries != len(addrs) || st.Hits+st.Misses != uint64(4*len(addrs)) || st.Bypassed != 0 {
		t.Errorf("stats %+v for 4 processes over %d blocks", st, len(addrs))
	}
}
