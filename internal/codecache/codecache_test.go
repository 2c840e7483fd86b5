package codecache

import (
	"reflect"
	"testing"

	"tilevm/internal/rawexec"
	"tilevm/internal/rawisa"
	"tilevm/internal/translate"
)

// block builds a code sequence of n instructions and a CHAIN to the
// given target, n+2 words.
func block(n int, chainTo uint32) []rawisa.Word {
	code := make([]rawisa.Inst, 0, n+1)
	for i := 0; i < n; i++ {
		code = append(code, rawisa.Inst{Op: rawisa.ADDI, Rd: 1, Rs: 1, Imm: int32(i)})
	}
	code = append(code, rawisa.Inst{Op: rawisa.CHAIN, Imm: int32(chainTo)})
	w, err := rawisa.Encode(code)
	if err != nil {
		panic(err)
	}
	return w
}

// blk wraps block as the translator would hand it to the caches.
func blk(n int, chainTo uint32) *translate.Result {
	return &translate.Result{Code: block(n, chainTo)}
}

func res(pc uint32, n int) *translate.Result { return blk(n, pc+64) }

// wantProgram checks the L1's instruction memory against arena: the
// same code laid out by hand, chain sites already rewritten to J with
// absolute targets (made relative here), synced from scratch.
func wantProgram(t *testing.T, l1 *L1, arena ...[]rawisa.Word) {
	t.Helper()
	var want rawexec.Program
	var flat []rawisa.Word
	for _, code := range arena {
		site := len(flat) + len(code) - 2
		flat = append(flat, code...)
		if flat[site].Op() == rawisa.J {
			flat[site], _ = rawisa.JumpWord(int(flat[site].JOff()) - (site + 1))
		}
	}
	want.Sync(flat)
	if !reflect.DeepEqual(l1.Program(), &want) {
		t.Errorf("program differs from the hand-patched arena\n got %+v\nwant %+v", l1.Program(), &want)
	}
}

// patched returns a block's code with its chain site rewritten to a
// jump to program index target; the guest PC word after it stays.
func patched(code []rawisa.Word, target int) []rawisa.Word {
	code[len(code)-2], _ = rawisa.JumpWord(target)
	return code
}

func TestL1InsertAndLookup(t *testing.T) {
	l1 := NewL1(1024, NewIDs())
	idx, st := l1.Insert(l1.ids.ID(0x100), blk(4, 0x200))
	if st.Flushed || st.CopiedWords != 6 {
		t.Errorf("insert stats: %+v", st)
	}
	got, ok := l1.Lookup(l1.ids.ID(0x100))
	if !ok || got != idx {
		t.Errorf("Lookup = %d,%v", got, ok)
	}
	if _, ok := l1.Lookup(l1.ids.ID(0x999)); ok {
		t.Error("phantom hit")
	}
	if l1.Lookups != 2 || l1.Hits != 1 {
		t.Errorf("counters: %d/%d", l1.Lookups, l1.Hits)
	}
	if l1.Bytes() != 24 {
		t.Errorf("Bytes = %d, want the block's CodeBytes", l1.Bytes())
	}
}

func TestL1ChainingBothDirections(t *testing.T) {
	l1 := NewL1(4096, NewIDs())
	// A chains to B (not yet resident): the site stays a CHAIN, pending.
	aIdx, st := l1.Insert(l1.ids.ID(0xA), blk(2, 0xB))
	if st.Patches != 0 {
		t.Errorf("premature patch")
	}
	wantProgram(t, l1, block(2, 0xB))
	// B arrives, chains back to A (resident): both directions patch.
	bIdx, st := l1.Insert(l1.ids.ID(0xB), blk(3, 0xA))
	if st.Patches != 2 || l1.Chains != 2 {
		t.Errorf("patches = %d, chains = %d, want 2 (incoming + outgoing)", st.Patches, l1.Chains)
	}
	wantProgram(t, l1, patched(block(2, 0xB), bIdx), patched(block(3, 0xA), aIdx))
	// C chains to B: outgoing only, the target is resident.
	_, st = l1.Insert(l1.ids.ID(0xC), blk(1, 0xB))
	if st.Patches != 1 {
		t.Errorf("patches = %d, want 1", st.Patches)
	}
	wantProgram(t, l1, patched(block(2, 0xB), bIdx), patched(block(3, 0xA), aIdx), patched(block(1, 0xB), bIdx))
}

// A block that chains to itself is patched at its own insert.
func TestL1SelfChain(t *testing.T) {
	l1 := NewL1(4096, NewIDs())
	l1.Insert(l1.ids.ID(0x1), blk(1, 0x9))
	idx, st := l1.Insert(l1.ids.ID(0xA), blk(2, 0xA))
	if st.Patches != 1 {
		t.Errorf("patches = %d, want 1", st.Patches)
	}
	wantProgram(t, l1, block(1, 0x9), patched(block(2, 0xA), idx))
}

func TestL1NoChainAblation(t *testing.T) {
	l1 := NewL1(4096, NewIDs())
	l1.NoChain = true
	l1.Insert(l1.ids.ID(0xA), blk(2, 0xB))
	_, st := l1.Insert(l1.ids.ID(0xB), blk(2, 0xA))
	if st.Patches != 0 || l1.Chains != 0 {
		t.Error("NoChain still patched")
	}
	wantProgram(t, l1, block(2, 0xB), block(2, 0xA))
}

func TestL1FlushWhenFull(t *testing.T) {
	l1 := NewL1(200, NewIDs()) // tiny: a 5-inst block is 7 words = 28 bytes
	var flushed bool
	for i := 0; i < 10; i++ {
		_, st := l1.Insert(l1.ids.ID(uint32(0x100+i*16)), blk(5, 0))
		flushed = flushed || st.Flushed
	}
	if !flushed {
		t.Error("cache never flushed")
	}
	if l1.Flushes == 0 {
		t.Error("flush counter zero")
	}
	// Old entries are gone after the flush.
	if _, ok := l1.Lookup(l1.ids.ID(0x100)); ok {
		t.Error("pre-flush entry survived")
	}
}

// A flush drops the pending chain sites with the code they pointed
// into: a target arriving afterwards must patch nothing, or it would
// rewrite whatever now occupies those indices.
func TestL1FlushDropsPendingSites(t *testing.T) {
	for _, explicit := range []bool{false, true} {
		l1 := NewL1(64, NewIDs())
		l1.Insert(l1.ids.ID(0xA), blk(4, 0xB)) // 24 bytes, site pending on 0xB
		l1.Insert(l1.ids.ID(0xC), blk(4, 0xB)) // 48 bytes, a second one
		if explicit {
			l1.Flush()
		}
		// Without the explicit flush this insert does not fit and flushes.
		_, st := l1.Insert(l1.ids.ID(0xD), blk(6, 0xE))
		if st.Flushed == explicit {
			t.Errorf("explicit=%v: Flushed = %v", explicit, st.Flushed)
		}
		_, st = l1.Insert(l1.ids.ID(0xB), blk(1, 0xF))
		if st.Patches != 0 || l1.Chains != 0 {
			t.Errorf("explicit=%v: %d patches into flushed code", explicit, st.Patches)
		}
		wantProgram(t, l1, block(6, 0xE), block(1, 0xF))
		if l1.Flushes != 1 || l1.Contains(l1.ids.ID(0xA)) || l1.Bytes() != 32+12 {
			t.Errorf("explicit=%v: flushes %d, bytes %d", explicit, l1.Flushes, l1.Bytes())
		}
	}
}

// Checkpoint restore rebuilds the L1 by re-inserting the resident
// blocks in EntryPCs order; the program, chain patches included, and
// the sites still pending must come out the same.
func TestL1ReinsertReproducesProgram(t *testing.T) {
	blocks := map[uint32]*translate.Result{}
	l1 := NewL1(100, NewIDs())
	targets := []uint32{3, 0, 7, 1, 2, 12, 7, 12, 6, 6} // 6..9 survive the flush
	for pc, to := range targets {
		b := blk(1+pc%3, to)
		blocks[uint32(pc)] = b
		l1.Insert(l1.ids.ID(uint32(pc)), b)
	}
	if l1.Flushes != 1 || l1.Chains != 4+3 {
		t.Fatalf("%d flushes, %d chains: the sequence was meant to flush once, patching four sites before and three after", l1.Flushes, l1.Chains)
	}
	again := NewL1(100, NewIDs())
	for _, pc := range l1.EntryPCs() {
		again.Insert(again.ids.ID(pc), blocks[pc])
	}
	if !reflect.DeepEqual(again.Program(), l1.Program()) {
		t.Errorf("re-inserted program differs\n got %+v\nwant %+v", again.Program(), l1.Program())
	}
	if !reflect.DeepEqual(again.EntryPCs(), l1.EntryPCs()) || again.Bytes() != l1.Bytes() {
		t.Errorf("re-inserted entries %v (%d bytes), want %v (%d)", again.EntryPCs(), again.Bytes(), l1.EntryPCs(), l1.Bytes())
	}
	// Both must react identically to the block the pending sites wait for.
	late := blk(2, 0)
	_, st1 := l1.Insert(l1.ids.ID(12), late)
	_, st2 := again.Insert(again.ids.ID(12), late)
	if st1.Patches != 1 || st1 != st2 || !reflect.DeepEqual(again.Program(), l1.Program()) {
		t.Errorf("after the pending target arrived: %+v vs %+v, want one patch", st2, st1)
	}
}

func TestL15FIFOEviction(t *testing.T) {
	bank := NewL15(200)
	for i := 0; i < 6; i++ {
		bank.Insert(int32(i), uint32(i), res(uint32(i), 10)) // 48 bytes each
	}
	// Early entries must have been evicted, later ones present.
	if _, ok := bank.Lookup(0); ok {
		t.Error("oldest entry survived")
	}
	if _, ok := bank.Lookup(5); !ok {
		t.Error("newest entry evicted")
	}
	if bank.Bytes() > 200 {
		t.Errorf("over capacity: %d", bank.Bytes())
	}
}

func TestL15OversizedBlockNotCached(t *testing.T) {
	bank := NewL15(100)
	bank.Insert(1, 1, res(1, 100))
	if _, ok := bank.Lookup(1); ok {
		t.Error("oversized block cached")
	}
}

func TestL15DuplicateInsert(t *testing.T) {
	bank := NewL15(1000)
	r := res(1, 10)
	bank.Insert(1, 1, r)
	bank.Insert(1, 1, r)
	if bank.Bytes() != r.CodeBytes() {
		t.Errorf("duplicate insert double-counted: %d", bank.Bytes())
	}
}

func TestL2AccountingAndEviction(t *testing.T) {
	l2 := NewL2(500)
	for i := 0; i < 20; i++ {
		l2.Insert(int32(i), uint32(i), res(uint32(i), 10))
	}
	if l2.Bytes() > 500 {
		t.Errorf("over budget: %d", l2.Bytes())
	}
	if _, ok := l2.Lookup(19); !ok {
		t.Error("latest block missing")
	}
	if l2.Accesses != 1 {
		t.Errorf("accesses = %d", l2.Accesses)
	}
	if _, ok := l2.Lookup(0); ok {
		t.Error("oldest block survived eviction")
	}
	if l2.Misses != 1 {
		t.Errorf("misses = %d", l2.Misses)
	}
	if l2.Contains(0) {
		t.Error("Contains inconsistent with Lookup")
	}
}

func TestL2LargeCapacityHoldsEverything(t *testing.T) {
	l2 := NewL2(105 * 1024 * 1024)
	for i := 0; i < 1000; i++ {
		l2.Insert(int32(i), uint32(i*64), res(uint32(i*64), 20))
	}
	if l2.Len() != 1000 {
		t.Errorf("Len = %d", l2.Len())
	}
	for i := 0; i < 1000; i += 97 {
		if !l2.Contains(int32(i)) {
			t.Errorf("block %d missing", i)
		}
	}
}

func TestL1ArenaIndicesStableWithinGeneration(t *testing.T) {
	l1 := NewL1(1<<20, NewIDs())
	var idxs []int
	for i := 0; i < 50; i++ {
		idx, _ := l1.Insert(l1.ids.ID(uint32(i)), blk(3, 0xffffffff))
		idxs = append(idxs, idx)
	}
	for i, want := range idxs {
		got, ok := l1.Lookup(l1.ids.ID(uint32(i)))
		if !ok || got != want {
			t.Fatalf("entry %d moved: %d -> %d (%v)", i, want, got, ok)
		}
	}
}
