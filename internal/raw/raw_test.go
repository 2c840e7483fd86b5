package raw

import (
	"testing"

	"tilevm/internal/fault"
	"tilevm/internal/sim"
)

func TestGridGeometry(t *testing.T) {
	p := DefaultParams()
	if p.Tiles() != 16 {
		t.Fatalf("tiles = %d", p.Tiles())
	}
	x, y := p.XY(5)
	if x != 1 || y != 1 {
		t.Errorf("XY(5) = %d,%d", x, y)
	}
	if p.TileAt(1, 1) != 5 {
		t.Errorf("TileAt(1,1) = %d", p.TileAt(1, 1))
	}
	for id := 0; id < 16; id++ {
		x, y := p.XY(id)
		if p.TileAt(x, y) != id {
			t.Errorf("XY/TileAt not inverse for %d", id)
		}
	}
}

// TestParseGrid pins the one -grid parser tilevm and tilevmd share:
// non-positive sizes are the parser's to reject, an oversized fabric
// (257x4) is the placer's.
func TestParseGrid(t *testing.T) {
	for _, tc := range []struct {
		in   string
		w, h int // 0, 0 = error
	}{
		{"8x8", 8, 8},
		{"8X8", 8, 8},
		{"0x8", 0, 0},
		{"-4x4", 0, 0},
		{"8x", 0, 0},
		{"8x8x8", 0, 0},
		{"257x4", 257, 4},
	} {
		w, h, err := ParseGrid(tc.in)
		if tc.w == 0 {
			if err == nil {
				t.Errorf("ParseGrid(%q) = %d, %d, want an error", tc.in, w, h)
			}
			continue
		}
		if err != nil || w != tc.w || h != tc.h {
			t.Errorf("ParseGrid(%q) = %d, %d, %v, want %d, %d", tc.in, w, h, err, tc.w, tc.h)
		}
	}
}

func TestHopsManhattan(t *testing.T) {
	p := DefaultParams()
	cases := []struct {
		a, b int
		want uint64
	}{
		{0, 0, 0}, {0, 1, 1}, {0, 4, 1}, {0, 5, 2}, {0, 15, 6}, {5, 6, 1}, {5, 10, 2},
	}
	for _, c := range cases {
		if got := p.Hops(c.a, c.b); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
		if p.Hops(c.b, c.a) != c.want {
			t.Errorf("Hops not symmetric for %d,%d", c.a, c.b)
		}
	}
}

func TestNetLatGrowsWithDistanceAndSize(t *testing.T) {
	p := DefaultParams()
	near := p.NetLat(5, 6, 1)
	far := p.NetLat(0, 15, 1)
	if far <= near {
		t.Error("distance does not increase latency")
	}
	small := p.NetLat(5, 6, 1)
	big := p.NetLat(5, 6, 100)
	if big <= small {
		t.Error("payload size does not increase latency")
	}
}

func TestMachineMessaging(t *testing.T) {
	m := NewMachine(DefaultParams())
	got := ""
	m.SpawnTile(0, "sender", func(c *TileCtx) {
		c.Advance(10)
		c.Send(15, "ping", 4)
	})
	m.SpawnTile(15, "receiver", func(c *TileCtx) {
		msg := c.Recv()
		got = msg.Payload.(string)
		if msg.From != 0 {
			t.Errorf("From = %d", msg.From)
		}
		// 10 (sender) + header 2 + 6 hops + 4 words = 22.
		if c.Now() != 22 {
			t.Errorf("arrival at %d, want 22", c.Now())
		}
		c.Stop()
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "ping" {
		t.Errorf("payload = %q", got)
	}
}

// TestFaultFailStopSilencesTile: after its fail cycle a tile consumes
// messages without responding, and is excused from deadlock detection
// as a daemon.
func TestFaultFailStopSilencesTile(t *testing.T) {
	m := NewMachine(DefaultParams())
	m.Faults = fault.NewInjector(&fault.Plan{Fails: []fault.TileFail{{Tile: 1, Cycle: 50}}})
	replies := 0
	m.SpawnTile(1, "server", func(c *TileCtx) {
		for {
			msg := c.Recv()
			c.Send(msg.From, msg.Payload, 1)
		}
	})
	m.SpawnTile(2, "client", func(c *TileCtx) {
		c.Send(1, 1, 1)
		c.Recv()
		replies++
		c.Advance(100) // past the server's fail cycle
		c.Send(1, 2, 1)
		if _, ok := c.P.RecvDeadline(c.M.Inbox(c.Tile), c.Now()+1000); ok {
			t.Error("dead server replied")
		}
		c.Stop()
	})
	if err := m.Run(); err != nil {
		t.Fatalf("Run = %v", err)
	}
	if replies != 1 {
		t.Errorf("replies = %d, want 1", replies)
	}
	if m.Faults.Counts().Fails != 1 {
		t.Errorf("fails = %d, want 1", m.Faults.Counts().Fails)
	}
}

// TestFaultStallDelaysService: a transient stall pushes the stalled
// tile's reply back by the stall duration.
// TestFaultStallDelaysService: a server stalled when a request reaches
// it answers once its stall window has closed, and a window that closed
// before the request arrived costs nothing.
func TestFaultStallDelaysService(t *testing.T) {
	serviceAt := func(plan *fault.Plan) sim.Time {
		m := NewMachine(DefaultParams())
		m.Faults = fault.NewInjector(plan)
		var at sim.Time
		m.SpawnTile(1, "server", func(c *TileCtx) {
			c.Recv()
			c.Send(2, "done", 1)
		})
		m.SpawnTile(2, "client", func(c *TileCtx) {
			c.Send(1, "go", 1)
			c.Recv()
			at = c.Now()
			c.Stop()
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return at
	}
	p := DefaultParams()
	back := p.NetLat(1, 2, 1)
	// A plan with an irrelevant stall (tile 9) as the fault-free control,
	// so every run uses the same code path.
	clean := serviceAt(&fault.Plan{Stalls: []fault.TileStall{{Tile: 9, Cycle: 0, Dur: 777}}})
	if want := p.NetLat(2, 1, 1) + back; clean != want {
		t.Fatalf("clean service at %d, want %d", clean, want)
	}
	if got := serviceAt(&fault.Plan{Stalls: []fault.TileStall{{Tile: 1, Cycle: 0, Dur: 777}}}); got != 777+back {
		t.Errorf("stalled service at %d, want %d: the reply leaves when the window closes at 777", got, 777+back)
	}
	if got := serviceAt(&fault.Plan{Stalls: []fault.TileStall{{Tile: 1, Cycle: 0, Dur: 1}}}); got != clean {
		t.Errorf("service at %d after a stall that ended at cycle 1, want the clean %d", got, clean)
	}
}

func TestMachineRequestReply(t *testing.T) {
	m := NewMachine(DefaultParams())
	m.SpawnTile(1, "server", func(c *TileCtx) {
		for {
			msg := c.Recv()
			c.Tick(5) // service occupancy
			c.Send(msg.From, msg.Payload.(int)*2, 1)
		}
	})
	m.SpawnTile(2, "client", func(c *TileCtx) {
		for i := 1; i <= 3; i++ {
			c.Send(1, i, 1)
			r := c.Recv()
			if r.Payload.(int) != i*2 {
				t.Errorf("reply = %v, want %d", r.Payload, i*2)
			}
		}
		c.Stop()
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestHopTableMatchesNetLat checks the machine's precomputed tile
// coordinates against Params.NetLat: every (from, to) pair and every
// payload size up to 64 words, on a square fabric of each size the
// figures use and on a non-square one.
func TestHopTableMatchesNetLat(t *testing.T) {
	for _, g := range [][2]int{{4, 4}, {8, 8}, {5, 3}} {
		p := DefaultParams()
		p.Width, p.Height = g[0], g[1]
		m := NewMachine(p)
		for from := range p.Tiles() {
			for to := range p.Tiles() {
				for words := 0; words <= 64; words++ {
					if got, want := m.netLat(from, to, words), p.NetLat(from, to, words); got != want {
						t.Fatalf("%dx%d: netLat(%d, %d, %d) = %d, Params.NetLat = %d", g[0], g[1], from, to, words, got, want)
					}
				}
			}
		}
	}
}
