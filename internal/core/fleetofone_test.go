package core

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"tilevm/internal/translate"
)

// TestRunIsFleetOfOne pins what Run returns on four guests in four
// configurations: the cycle count, the whole metrics set, the state
// hash, the per-tile busy vector and, when traced, the trace bytes.
// Run is a fleet of one slot laid out by place, the fixed 4×4 layout;
// the cycles, busy vectors and traces were recorded when Run still
// built its own machine, so they hold the fleet of one to everything a
// single machine returned.
func TestRunIsFleetOfOne(t *testing.T) {
	guests := []string{"164.gzip", "181.mcf", "176.gcc", "197.parser"}
	memo := translate.NewMemo()
	type row struct {
		name   string
		cfg    func(*Config)
		traced bool
		// memo runs against a memo that the default row filled.
		memo bool
		want [4]string
	}
	rows := []row{
		{name: "default",
			want: [4]string{"1356400:0:b2df329c2ab2f55b", "2805178:0:4db70f4e465b6186", "14411161:0:69db9422af000c15", "1769325:0:143974ef57175813"}},
		{name: "morph", cfg: func(c *Config) { c.Morph = true },
			want: [4]string{"1366236:0:58ee5c42d8baa9bb", "2814592:0:8a60ba3e6cb1f196", "14525580:0:6fad6a705b0d9ab6", "1775839:0:2bba76850602b4f1"}},
		{name: "traced", traced: true,
			want: [4]string{"1356400:409651:2b58a1d800d47389", "2805178:5774705:36d56ccae1022d9b", "14411161:14022151:e099eabefc432824", "1769325:1754337:e5a29f0e76fdb5f7"}},
		{name: "memo", memo: true,
			want: [4]string{"1356400:0:b2df329c2ab2f55b", "2805178:0:4db70f4e465b6186", "14411161:0:69db9422af000c15", "1769325:0:143974ef57175813"}},
	}
	for _, r := range rows {
		for gi, guest := range guests {
			cfg := DefaultConfig()
			if r.cfg != nil {
				r.cfg(&cfg)
			}
			if r.traced {
				cfg.Tracer = NewTracer(50_000)
			}
			// The default row fills the memo as it runs; the memo row
			// is handed what it filled.
			if r.name == "default" || r.memo {
				cfg.Memo = memo
			}
			res, err := Run(fleetImgs(t, guest)[0], cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", r.name, guest, err)
			}
			h := fnv.New64a()
			fmt.Fprintf(h, "cycles=%d exit=%d hash=%#x stdout=%q busy=%v\n%+v\n",
				res.Cycles, res.ExitCode, res.StateHash, res.Stdout, res.TileBusy, res.M)
			n := 0
			if r.traced {
				var buf bytes.Buffer
				if err := cfg.Tracer.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				h.Write(buf.Bytes())
				n = buf.Len()
			}
			got := fmt.Sprintf("%d:%d:%016x", res.Cycles, n, h.Sum64())
			if got != r.want[gi] {
				t.Errorf("%s/%s: digest %q, golden %q", r.name, guest, got, r.want[gi])
			}
		}
	}
}
