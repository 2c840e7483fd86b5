package translate

// Reachable translates every block statically reachable from entry —
// breadth first through the direct Target/FallTarget edges the
// speculative walker follows, stopping at indirect exits — and returns
// the results in visit order. Addresses that fail to translate (a
// mispredicted path into data) are skipped. It is the block corpus of
// the digest test and the translate micro-benchmarks.
func (t *Translator) Reachable(mem CodeReader, entry uint32) []*Result {
	var out []*Result
	seen := map[uint32]bool{entry: true}
	queue := []uint32{entry}
	push := func(pc uint32) {
		if !seen[pc] {
			seen[pc] = true
			queue = append(queue, pc)
		}
	}
	for len(queue) > 0 {
		pc := queue[0]
		queue = queue[1:]
		res, err := t.TranslateFinal(mem, pc)
		if err != nil {
			continue
		}
		out = append(out, res)
		switch res.Kind {
		case ExitFall:
			push(res.Target)
		case ExitBranch, ExitCall:
			push(res.Target)
			push(res.FallTarget)
		case ExitIndirect:
			if res.FallTarget != 0 {
				push(res.FallTarget)
			}
		}
	}
	return out
}
