package translate

import (
	"math/rand"
	"testing"

	"tilevm/internal/guest"
	"tilevm/internal/rawisa"
)

// TestTranslateGarbageNeverPanics points the full translation pipeline
// at random bytes — the situation a speculative translator is in when
// it follows a mispredicted path into data. Every call must return a
// block or an error; blocks must decode, word for word, and end in an
// exit.
func TestTranslateGarbageNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	mem := guest.NewMemory()
	base := uint32(0x100000)
	junk := make([]byte, 4096)
	for i := range junk {
		junk[i] = byte(r.Intn(256))
	}
	mem.WriteBytes(base, junk)

	for _, opts := range []Options{{}, {Optimize: true}, {ConservativeFlags: true}} {
		tr := New(opts)
		for off := uint32(0); off < 1024; off++ {
			res, err := tr.TranslateFinal(mem, base+off)
			if err != nil {
				continue
			}
			if len(res.Code) == 0 || res.NumGuest == 0 {
				t.Fatalf("offset %d: empty block accepted", off)
			}
			code, err := rawisa.DecodeAll(res.Code)
			if err != nil {
				t.Fatalf("offset %d: %v", off, err)
			}
			if !code[len(code)-1].IsBlockEnd() {
				t.Fatalf("offset %d: block not exit-terminated", off)
			}
		}
	}
}

// TestTranslateZeroBytes: a run of zeros decodes as `add [eax], al`
// chains — the classic data-as-code case. Must translate or fail
// cleanly at every option level.
func TestTranslateZeroBytes(t *testing.T) {
	mem := guest.NewMemory()
	tr := New(Options{Optimize: true})
	res, err := tr.TranslateFinal(mem, 0x5000)
	if err != nil {
		t.Fatalf("zeros failed to translate: %v", err)
	}
	if res.NumGuest == 0 {
		t.Fatal("no instructions from zero bytes")
	}
}

// TestDiscoverBlockStopsAtGarbage verifies a decodable prefix followed
// by junk ends the block before the junk rather than failing the whole
// translation.
func TestDiscoverBlockStopsAtGarbage(t *testing.T) {
	mem := guest.NewMemory()
	base := uint32(0x2000)
	// inc eax; inc eax; 0x0F 0x05 (unsupported)
	mem.WriteBytes(base, []byte{0x40, 0x40, 0x0F, 0x05})
	insts, err := DiscoverBlock(mem, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 2 {
		t.Fatalf("got %d insts, want 2", len(insts))
	}
	// But starting AT the junk must error.
	if _, err := DiscoverBlock(mem, base+2); err == nil {
		t.Error("junk start accepted")
	}
}
