package translate

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"tilevm/internal/guest"
	"tilevm/internal/workload"
)

// corpusDigest hashes everything the code caches and the execution
// engine consume from each block of a corpus: the finalized host code
// and the control-flow metadata.
func corpusDigest(blocks []*Result) string {
	h := sha256.New()
	put := func(vs ...uint32) {
		var buf [4]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint32(buf[:], v)
			h.Write(buf[:])
		}
	}
	for _, r := range blocks {
		put(r.GuestAddr, uint32(r.Kind), r.Target, r.FallTarget,
			uint32(r.NumGuest), r.GuestLen, uint32(r.CodeBytes), uint32(len(r.Code)))
		for _, in := range r.Code {
			put(uint32(in.Op), uint32(in.Rd), uint32(in.Rs), uint32(in.Rt), uint32(in.Imm), in.Target)
		}
	}
	return fmt.Sprintf("%d:%x", len(blocks), h.Sum(nil)[:8])
}

// corpusGolden pins the translator's output over every statically
// reachable block of all 11 workload profiles, optimizer on and off
// ("blocks:first 8 bytes of SHA-256"). Recorded on the commit before
// the map-free back end (ISSUE 12) and unchanged by it: a back-end
// change that is meant to be byte-identical must leave these alone, and
// one that is meant to change the emitted code must say so by updating
// them.
var corpusGolden = map[string][2]string{
	"164.gzip":    {"281:39a79116662a3081", "281:52b53302573945cb"},
	"175.vpr":     {"2421:18d40b93efce597e", "2421:4372cfd6bf52bd4b"},
	"176.gcc":     {"6063:2096757aa7d6c26e", "6063:b4bd940d9d91e453"},
	"181.mcf":     {"165:a924bc404e44b390", "165:c62679ade7a2d17d"},
	"186.crafty":  {"4733:5e75c7cc9b202dbc", "4733:92628bce730ac45e"},
	"197.parser":  {"561:29e59a52debaeee7", "561:cac7589c416165d0"},
	"253.perlbmk": {"3097:d34731c425914a33", "3097:b58c22539c3ba817"},
	"254.gap":     {"2187:572c2a7b159ec3e7", "2187:3ac8b0a7643fac79"},
	"255.vortex":  {"6833:4e175fea75244ff6", "6833:aad7827701bdc5a5"},
	"256.bzip2":   {"256:402a77ff1d888ee5", "256:e33f1fd8a682758b"},
	"300.twolf":   {"1747:a3d26d5e009ffc29", "1747:df453aa7de8a06f3"},
}

func TestTranslateCorpusDigest(t *testing.T) {
	profiles := workload.Profiles()
	if len(profiles) != len(corpusGolden) {
		t.Errorf("%d profiles, %d golden entries", len(profiles), len(corpusGolden))
	}
	for _, p := range profiles {
		img := p.Build()
		mem := guest.Load(img).Mem
		for i, opts := range []Options{{Optimize: true}, {}} {
			got := corpusDigest(New(opts).Reachable(mem, img.Entry))
			if want := corpusGolden[p.Name][i]; got != want {
				t.Errorf("%s optimize=%v: digest %q, golden %q", p.Name, opts.Optimize, got, want)
			}
		}
	}
}

// TestTranslateAllocsPerBlock pins the allocation count of one
// translation, averaged over the 176.gcc corpus. Allocation counts are
// deterministic, so the ceilings sit just above the measured values
// (28.1 optimizing, 18.2 template) and far below the map-based back
// end's 53: a map or a per-call buffer creeping back in fails here, in
// tier-1, not only in the bench gate.
func TestTranslateAllocsPerBlock(t *testing.T) {
	p, _ := workload.ByName("176.gcc")
	img := p.Build()
	mem := guest.Load(img).Mem
	tr := New(Options{Optimize: true})
	var addrs, templated []uint32
	for _, r := range tr.Reachable(mem, img.Entry) {
		addrs = append(addrs, r.GuestAddr)
		if _, err := tr.TranslateTemplate(mem, r.GuestAddr); err == nil {
			templated = append(templated, r.GuestAddr)
		}
	}
	perBlock := func(addrs []uint32, step func(CodeReader, uint32) (*Result, error)) float64 {
		return testing.AllocsPerRun(1, func() {
			for _, a := range addrs {
				step(mem, a)
			}
		}) / float64(len(addrs))
	}
	if got := perBlock(addrs, tr.TranslateFinal); got > 29 {
		t.Errorf("optimizing tier: %.1f allocs/block, ceiling 29", got)
	} else {
		t.Logf("optimizing tier: %.1f allocs/block over %d blocks", got, len(addrs))
	}
	if got := perBlock(templated, tr.TranslateTemplate); got > 19 {
		t.Errorf("template tier: %.1f allocs/block, ceiling 19", got)
	} else {
		t.Logf("template tier: %.1f allocs/block over %d blocks", got, len(templated))
	}
}
