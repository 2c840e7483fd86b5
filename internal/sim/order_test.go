package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"
)

// orderProgram is one seeded random program for the serial kernel: n
// processes, one inbox port each, every process drawing its operations
// from its own generator so the program is fixed by (seed, pid) and
// only the kernel decides the interleaving.
type orderProgram struct {
	name  string
	seed  uint64
	procs int
	steps int  // operations of the longest-lived process
	block bool // allow Recv on an empty inbox (parkBlocked, can deadlock)
	start Time // SetStart, 0 = leave at zero
	limit Time // SetLimit, 0 = none
	// stopPid calls Stop before its operation stopStep and keeps going,
	// so its next park must hand control to Run. -1 = nobody stops.
	stopPid, stopStep int
}

// splitmix is a tiny fixed generator: the goldens must not depend on
// math/rand's algorithm.
type splitmix uint64

func (r *splitmix) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

// run executes the program and returns its dispatch-order digest: every
// resume — the return of any operation that may have parked — logs
// (kernel clock, pid, step, outcome), and the log is hashed with Run's
// error string and the final clock. Any change to the order in which
// the kernel dispatches wakeups, to the clock it dispatches them at, or
// to how the run ends moves the digest.
func (pr orderProgram) run() string {
	h := sha256.New()
	var buf [8]byte
	put := func(vs ...uint64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	}
	resumes := 0

	s := New()
	if pr.start != 0 {
		s.SetStart(pr.start)
	}
	s.SetLimit(pr.limit)
	inbox := make([]*Port, pr.procs)
	for i := range inbox {
		inbox[i] = s.NewPort(fmt.Sprintf("in%d", i))
	}
	for pid := 0; pid < pr.procs; pid++ {
		// Lifetimes differ by pid, so bodies return while peers are
		// still running, blocked and asleep.
		steps := pr.steps * (1 + pid%4) / 4
		rng := splitmix(pr.seed*1_000_003 + uint64(pid))
		s.Spawn(fmt.Sprintf("p%d", pid), func(p *Proc) {
			in := inbox[p.id]
			for step := 0; step < steps; step++ {
				if p.id == pr.stopPid && step == pr.stopStep {
					p.Stop()
				}
				out := uint64(0) // what the operation observed
				switch op := rng.intn(16); {
				case op < 4: // small steps: same-time ties across pids
					p.Advance(Time(1 + rng.intn(3)))
				case op < 5:
					p.Advance(Time(1 + rng.intn(40)))
				case op < 7:
					p.Tick(Time(rng.intn(6)))
					p.Tick(Time(rng.intn(6)))
					p.Sync()
				case op < 11: // latency -8..31: arrivals at, before and after now
					lat := rng.intn(40) - 8
					at := p.Now()
					if lat >= 0 {
						at += Time(lat)
					} else if at >= Time(-lat) {
						at -= Time(-lat)
					}
					inbox[rng.intn(pr.procs)].Send(p.id, step, at)
				case op < 12:
					if pr.block || in.Len() > 0 {
						out = uint64(p.Recv(in).From) + 1
					}
				case op < 14: // deadline -4..35 from now: polls, hits, timeouts, early wakes
					dl := p.Now() + Time(rng.intn(40))
					if dl >= 4 {
						dl -= 4
					}
					if m, ok := p.RecvDeadline(in, dl); ok {
						out = uint64(m.From) + 1
					}
				default:
					if m, ok := p.TryRecv(in); ok {
						out = uint64(m.From) + 1
					}
				}
				put(p.sh.now, uint64(p.id), uint64(step), out)
				resumes++
			}
		})
	}
	err := s.Run()
	h.Write([]byte(fmt.Sprint(err)))
	put(s.Now())
	return fmt.Sprintf("%d:%x", resumes, h.Sum(nil)[:8])
}

// orderGolden pins the serial kernel's dispatch order ("resumes:first
// 8 bytes of SHA-256"). Recorded on the commit before the loop-less
// kernel (ISSUE 14), where Run's own for-loop popped every event, and
// unchanged by it: a kernel change that is meant to keep the order must
// leave these alone.
var orderGolden = []struct {
	prog orderProgram
	want string
}{
	{orderProgram{name: "8/clean", seed: 1, procs: 8, steps: 400, stopPid: -1}, "2000:f4fb0fd3d011d0ab"},
	{orderProgram{name: "8/block", seed: 2, procs: 8, steps: 400, block: true, stopPid: -1}, "1352:8ca9397a82d4a4cd"},
	{orderProgram{name: "8/start", seed: 3, procs: 8, steps: 300, block: true, start: 1_000_000, stopPid: -1}, "1204:47720f8c46d1cb9b"},
	{orderProgram{name: "8/limit", seed: 4, procs: 8, steps: 400, block: true, limit: 900, stopPid: -1}, "1465:d2a0775cde1da60a"},
	{orderProgram{name: "8/start+limit", seed: 5, procs: 8, steps: 400, start: 5000, limit: 5700, stopPid: -1}, "1682:f3f5d0338c9d76da"},
	{orderProgram{name: "8/stop", seed: 6, procs: 8, steps: 400, block: true, stopPid: 3, stopStep: 150}, "960:3a3f97dd76a42c95"},
	{orderProgram{name: "64/clean", seed: 7, procs: 64, steps: 200, stopPid: -1}, "8000:c951ee5d5086b45d"},
	{orderProgram{name: "64/block", seed: 8, procs: 64, steps: 200, block: true, stopPid: -1}, "7596:7ef63b7bd240a876"},
	{orderProgram{name: "64/limit", seed: 9, procs: 64, steps: 200, block: true, limit: 400, stopPid: -1}, "5696:622aac611572b249"},
	{orderProgram{name: "64/stop", seed: 10, procs: 64, steps: 200, block: true, stopPid: 63, stopStep: 120}, "5852:c505bebe7c825cb6"},
}

func TestSerialDispatchOrderDigest(t *testing.T) {
	for _, g := range orderGolden {
		if got := g.prog.run(); got != g.want {
			t.Errorf("%s: digest %q, golden %q", g.prog.name, got, g.want)
		}
	}
}
