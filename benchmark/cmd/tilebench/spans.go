package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"

	"tilevm/internal/trace"
)

// span is one recorded interval. Virtual spans come from the engine's tracer
// (clock "vcycles", one lane per tile); host spans are recorded by the
// benchmark around its calls into a layer (clock "ns", one lane per probe).
// Parent is the index of the span that caused this one, -1 for a root.
type span struct {
	Name   string
	Clock  string
	Lane   int // tile id (virtual) or probe lane (host)
	Guest  int // index into the workload's guest list; -1 if not attributable
	Start  uint64
	End    uint64
	Parent int
	Self   uint64 // set by nest: the duration less what the lane's child spans cover
	key    uint64 // the tracer's first argument (pc or addr), for causal linking
	exited bool   // a "syscall" span whose guest exited
}

func (s *span) dur() uint64 { return s.End - s.Start }

// virtualSpans converts a tracer's timeline to spans attributed to guest.
func virtualSpans(evs []trace.Event, guest int) []span {
	var out []span
	for _, e := range evs {
		if e.Ph != 'X' {
			continue
		}
		out = append(out, span{Name: e.Name, Clock: "vcycles", Lane: int(e.PID), Guest: guest,
			Start: e.TS, End: e.TS + e.Dur, Parent: -1, key: e.V1,
			exited: e.Name == "syscall" && e.K1 == "exited" && e.V1 == 1})
	}
	return out
}

// nest sets, for the spans of each lane, Parent by containment and Self, the
// span's duration minus the part its direct children cover.
// A tile kernel is sequential in virtual time and a probe lane is one
// goroutine, so spans of a lane are either nested or disjoint; overlaps counts
// the pairs that are neither, which must be zero. Spans are taken in recording
// order: a tracer records a span when it completes, so of two spans with the
// same interval the later one is the parent.
func nest(spans []span) (overlaps int) {
	byLane := map[int][]int{}
	for i := range spans {
		byLane[spans[i].Lane] = append(byLane[spans[i].Lane], i)
	}
	for i := range spans {
		spans[i].Self = spans[i].dur()
	}
	for _, idx := range byLane {
		sort.SliceStable(idx, func(a, b int) bool {
			x, y := &spans[idx[a]], &spans[idx[b]]
			if x.Start != y.Start {
				return x.Start < y.Start
			}
			if x.End != y.End {
				return x.End > y.End
			}
			return idx[a] > idx[b]
		})
		var stack []int
		for _, i := range idx {
			s := &spans[i]
			for len(stack) > 0 {
				top := &spans[stack[len(stack)-1]]
				if top.Start <= s.Start && s.End <= top.End {
					break
				}
				if s.Start < top.End {
					overlaps++
				}
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				p := stack[len(stack)-1]
				s.Parent = p
				spans[p].Self -= s.dur()
			}
			stack = append(stack, i)
		}
	}
	return overlaps
}

// causes maps a service-tile span to the exec-tile span that blocks on it.
// (An l15_fill is the bank keeping a copy after it has answered: nothing waits
// for it, and it stays a root.)
var causes = map[string]string{
	"l15_lookup": "fetch", "l2c_lookup": "fetch",
	"mmu": "memfill", "bank": "memfill", "sys": "syscall",
}

// causalWindow is how many earlier-starting spans of the causing kind
// linkCausal looks back over: far more than the execution tiles of a fleet
// can have open or recently closed at once.
const causalWindow = 512

// linkCausal gives service-tile spans the blocking exec-tile span that caused
// them as parent: the one span of the causing kind whose interval holds the
// child's start (and, on the code path, that asks for the same pc). With one
// VM there is one execution tile and the match is unique; in a fleet several
// execution tiles block at once, and a span with more than one candidate stays
// a root. It returns the number of spans left without a cause.
func linkCausal(spans []span) (unparented int) {
	byKind := map[string][]int{}
	for i := range spans {
		switch spans[i].Name {
		case "fetch", "memfill", "syscall":
			byKind[spans[i].Name] = append(byKind[spans[i].Name], i)
		}
	}
	for _, idx := range byKind {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].Start < spans[idx[b]].Start })
	}
	for i := range spans {
		s := &spans[i]
		kind, ok := causes[s.Name]
		if !ok || s.Parent >= 0 {
			continue
		}
		idx := byKind[kind]
		// Candidates start at or before s.Start; blocking spans of one tile
		// do not overlap, so only the last few starters can still be open.
		hi := sort.Search(len(idx), func(k int) bool { return spans[idx[k]].Start > s.Start })
		found := -1
		n := 0
		for k := hi - 1; k >= 0 && k >= hi-causalWindow; k-- {
			c := &spans[idx[k]]
			if c.End < s.Start {
				continue
			}
			if kind == "fetch" && c.key != s.key {
				continue
			}
			found = idx[k]
			n++
		}
		if n == 1 {
			s.Parent = found
			s.Guest = spans[found].Guest
		} else {
			unparented++
		}
	}
	return unparented
}

// spansPerGuestCap bounds how many spans of one guest and clock the spans file
// holds; totals are computed over all spans in memory and the file says how
// many it left out.
const spansPerGuestCap = 2500

// writeSpans writes the spans file: a header object and one span per line.
func writeSpans(path, workload string, seed int64, guests []string, spans []span) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	type gk struct {
		guest int
		clock string
	}
	written := map[gk]int{}
	keep := make([]int, len(spans)) // new index of each kept span, -1 if dropped
	kept := 0
	for i := range spans {
		k := gk{spans[i].Guest, spans[i].Clock}
		if written[k] >= spansPerGuestCap {
			keep[i] = -1
			continue
		}
		written[k]++
		keep[i] = kept
		kept++
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"clocks\":{\"vcycles\":\"virtual cycles on one tile (lane = tile id)\",\"ns\":\"host nanoseconds since the probe began (lane = probe)\"},\n", workload, seed)
	fmt.Fprintf(w, "\"guests\":[")
	for i, g := range guests {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", g)
	}
	fmt.Fprintf(w, "],\n\"spans_total\":%d,\"spans_written\":%d,\"per_guest_cap\":%d,\n\"spans\":[\n", len(spans), kept, spansPerGuestCap)
	first := true
	var buf []byte
	for i := range spans {
		if keep[i] < 0 {
			continue
		}
		s := &spans[i]
		parent := -1
		if s.Parent >= 0 {
			parent = keep[s.Parent] // -1 when the parent fell to the cap
		}
		buf = buf[:0]
		if !first {
			buf = append(buf, ",\n"...)
		}
		first = false
		buf = append(buf, `{"id":`...)
		buf = strconv.AppendInt(buf, int64(keep[i]), 10)
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendInt(buf, int64(parent), 10)
		buf = append(buf, `,"name":`...)
		buf = strconv.AppendQuote(buf, s.Name)
		buf = append(buf, `,"clock":`...)
		buf = strconv.AppendQuote(buf, s.Clock)
		buf = append(buf, `,"lane":`...)
		buf = strconv.AppendInt(buf, int64(s.Lane), 10)
		buf = append(buf, `,"guest":`...)
		buf = strconv.AppendInt(buf, int64(s.Guest), 10)
		buf = append(buf, `,"start":`...)
		buf = strconv.AppendUint(buf, s.Start, 10)
		buf = append(buf, `,"end":`...)
		buf = strconv.AppendUint(buf, s.End, 10)
		buf = append(buf, `,"self":`...)
		buf = strconv.AppendUint(buf, s.Self, 10)
		buf = append(buf, '}')
		w.Write(buf)
	}
	fmt.Fprintf(w, "\n]}\n")
	return w.Flush()
}
