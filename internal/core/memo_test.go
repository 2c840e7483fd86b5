package core

import (
	"reflect"
	"testing"

	"tilevm/internal/fault"
	"tilevm/internal/guest"
	"tilevm/internal/translate"
)

// Translation-memo invariance (Config.Memo). A memo may only remove
// host work: every case below runs without one, then twice against one
// shared memo, and all three runs must agree on everything a run
// reports — cycles, exit code, stdout, state hash, the per-tile busy
// vector and every counter of the metrics set (the whole FleetResult
// for a fleet). The second memo run must translate nothing the first
// one could publish: its misses stay at zero, and whatever it does not
// hit it bypasses because the guest, or a rollback, has written the
// page since loading.

type memoCase struct {
	name string
	img  func(t *testing.T) *guest.Image
	cfg  func() Config
	// fleet runs two copies of the image in two slots.
	fleet bool
	// wantBypass cases write their own code pages or restore them from a
	// checkpoint: the memo must step aside, visibly.
	wantBypass bool
	check      func(t *testing.T, r *Result)
}

func workloadImg(name string) func(*testing.T) *guest.Image {
	return func(t *testing.T) *guest.Image { return fleetImgs(t, name)[0] }
}

var memoCases = []memoCase{
	{name: "gcc", img: workloadImg("176.gcc"), cfg: DefaultConfig},
	{name: "smc", img: func(*testing.T) *guest.Image { return smcImage() }, cfg: DefaultConfig,
		wantBypass: true,
		check: func(t *testing.T, r *Result) {
			if r.M.SMCInvalidations == 0 {
				t.Error("no SMC invalidation recorded")
			}
		}},
	{name: "nospec", img: workloadImg("164.gzip"), cfg: noSpecCfg},
	{name: "rollback", img: workloadImg("197.parser"),
		cfg: func() Config {
			cfg := DefaultConfig()
			// An L2 bank that holds dirty lines by then, early enough
			// that parser is still reaching new code after the restore.
			cfg.Fault = &fault.Plan{Fails: []fault.TileFail{{Tile: 10, Cycle: 300_000}}}
			return cfg
		},
		wantBypass: true,
		check: func(t *testing.T, r *Result) {
			if r.M.Rollbacks == 0 {
				t.Error("dirty bank kill recorded no rollback")
			}
		}},
	{name: "fleet/same-image", img: workloadImg("164.gzip"), fleet: true,
		cfg: func() Config { return fleetCfg(8, 8) }},
	{name: "fleet/same-image/nospec", img: workloadImg("164.gzip"), fleet: true,
		cfg: func() Config {
			cfg := fleetCfg(8, 8)
			cfg.Speculative = false
			return cfg
		}},
	{name: "noopt", img: workloadImg("164.gzip"),
		cfg: func() Config {
			cfg := DefaultConfig()
			cfg.Optimize = false
			return cfg
		}},
	{name: "conservative-flags", img: workloadImg("164.gzip"),
		cfg: func() Config {
			cfg := DefaultConfig()
			cfg.ConservativeFlags = true
			return cfg
		}},
}

// run returns everything the case's run reports, in a form
// reflect.DeepEqual compares whole.
func (mc *memoCase) run(t *testing.T, img *guest.Image, memo *translate.Memo) any {
	t.Helper()
	cfg := mc.cfg()
	cfg.Memo = memo
	if mc.fleet {
		fr, err := RunFleet([]*guest.Image{img, img}, cfg, FleetConfig{MaxSlots: 2})
		if err != nil {
			t.Fatal(err)
		}
		if n := fr.Fleet.GuestsFinished; n != 2 {
			t.Fatalf("%d of 2 guests finished", n)
		}
		return fr
	}
	r, err := Run(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mc.check != nil {
		mc.check(t, r)
	}
	return r
}

func TestMemoInvariance(t *testing.T) {
	for i := range memoCases {
		mc := &memoCases[i]
		t.Run(mc.name, func(t *testing.T) {
			img := mc.img(t)
			want := mc.run(t, img, nil)

			memo := translate.NewMemo()
			cold := mc.run(t, img, memo)
			if !reflect.DeepEqual(cold, want) {
				t.Errorf("filling the memo changed the run\n got %+v\nwant %+v", cold, want)
			}
			first := memo.Stats()
			if first.Misses == 0 || first.Entries == 0 || first.Bytes == 0 {
				t.Errorf("first run published nothing: %+v", first)
			}

			warm := mc.run(t, img, memo)
			if !reflect.DeepEqual(warm, want) {
				t.Errorf("running from the memo changed the run\n got %+v\nwant %+v", warm, want)
			}
			second := memo.Stats()
			if second.Misses != first.Misses || second.Entries != first.Entries {
				t.Errorf("second run translated blocks the first had published: %+v, then %+v", first, second)
			}
			if second.Hits == first.Hits {
				t.Errorf("second run hit nothing: %+v", second)
			}
			if bypassed := second.Bypassed > 0; bypassed != mc.wantBypass {
				t.Errorf("bypassed = %d, want any: %v", second.Bypassed, mc.wantBypass)
			}
		})
	}
}
