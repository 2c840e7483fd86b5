// Package translate is the binary translator: it discovers guest basic
// blocks, analyzes condition-code liveness (the paper's "extensive dead
// flag elimination"), lowers x86 instructions to the MIPS-like IR, and
// hands the result to the optimizer and register allocator. The output
// is a relocatable translated block ready for the code caches.
package translate

import (
	"fmt"
	"slices"

	"tilevm/internal/codegen"
	"tilevm/internal/ir"
	"tilevm/internal/opt"
	"tilevm/internal/x86"
)

// CodeReader provides guest code bytes to the translator (implemented
// by guest.Memory). The window it returns is read-only and may be a
// view of live guest memory or a buffer the next call reuses; the
// translator decodes it before it asks for another or returns, and
// keeps nothing that points into it.
type CodeReader interface {
	CodeWindow(addr uint32, n int) []byte
}

// MaxBlockInsts bounds the number of guest instructions per block.
const MaxBlockInsts = 32

// maxVRegsPerBlock stops block growth before the virtual register
// space (uint8) is exhausted; lowering one guest instruction never
// allocates more than ~24 temporaries.
const maxVRegsPerBlock = 190

// ExitKind classifies how a translated block ends, which drives the
// speculative translation engine's successor enqueueing policy.
type ExitKind uint8

const (
	// ExitFall is an unconditional fallthrough/jump to Target.
	ExitFall ExitKind = iota
	// ExitBranch is a conditional branch: Target taken, FallTarget not.
	ExitBranch
	// ExitCall is a direct call: Target is the callee, FallTarget the
	// return site (return-predictor hint, low priority).
	ExitCall
	// ExitIndirect is a register-indirect jump or indirect call; the
	// successor is unknown at translation time. For indirect calls
	// FallTarget still holds the return site.
	ExitIndirect
	// ExitRet is a function return (successor via return predictor).
	ExitRet
)

func (k ExitKind) String() string {
	switch k {
	case ExitFall:
		return "fall"
	case ExitBranch:
		return "branch"
	case ExitCall:
		return "call"
	case ExitIndirect:
		return "indirect"
	case ExitRet:
		return "ret"
	}
	return "?"
}

// Block is a translated block: the IR (later finalized host code) plus
// the control-flow metadata the runtime engine needs.
type Block struct {
	*ir.Block
	Kind       ExitKind
	Target     uint32 // taken/call/jump target (ExitFall/Branch/Call)
	FallTarget uint32 // fallthrough or call-return site
	// BackwardTaken reports whether a conditional branch jumps
	// backwards (static prediction: predict taken).
	BackwardTaken bool
}

// Error is a translation failure.
type Error struct {
	Addr   uint32
	Reason string
}

func (e *Error) Error() string {
	return fmt.Sprintf("translate: at %#x: %s", e.Addr, e.Reason)
}

// blockWindow is the most code a block can cover: MaxBlockInsts
// instructions of the architectural maximum length, plus the slack the
// decoder may read past the last one.
const blockWindow = MaxBlockInsts*x86.MaxInstLen + 4

// DiscoverBlock decodes the guest basic block starting at addr:
// instructions up to and including the first control transfer, capped
// at MaxBlockInsts. The slice is the caller's.
func DiscoverBlock(mem CodeReader, addr uint32) ([]x86.Inst, error) {
	return discoverBlock(mem, addr, MaxBlockInsts, nil)
}

// discoverBlock appends the block's instructions to insts[:0], decoding
// them out of one code window.
func discoverBlock(mem CodeReader, addr uint32, cap int, insts []x86.Inst) ([]x86.Inst, error) {
	insts = insts[:0]
	window := mem.CodeWindow(addr, blockWindow)
	pc := addr
	for len(insts) < cap {
		in, err := x86.Decode(window[pc-addr:], pc)
		if err != nil {
			if len(insts) == 0 {
				return nil, &Error{Addr: addr, Reason: err.Error()}
			}
			// A decodable prefix followed by garbage: end the block
			// before the bad instruction; if control reaches it the
			// runtime will fault there.
			return insts, nil
		}
		insts = append(insts, in)
		if in.EndsBlock() {
			break
		}
		pc = in.Next()
	}
	return insts, nil
}

// Options controls translation.
type Options struct {
	// Optimize enables the optimizer passes (the paper's Figure 8
	// comparison runs with this off and on).
	Optimize bool
	// ConservativeFlags disables the cross-block flag liveness
	// lookahead, forcing all arithmetic flags live at block exits
	// (ablation knob).
	ConservativeFlags bool
}

// Translator translates guest code. It owns the scratch the whole
// pipeline works in — decode buffer, flag-liveness vector, IR builder,
// optimizer and allocator tables — so a translation allocates only the
// Result it returns, and nothing in a Result points into the scratch.
// There is one Translator per engine (the engine's slave tiles take
// turns on it); it is not safe for concurrent use.
type Translator struct {
	Opts Options

	insts []x86.Inst // the block being translated
	live  []uint32   // flag bits live after each instruction
	bl    ir.Builder
	opt   opt.Scratch
	cg    codegen.Scratch
}

// New returns a translator with the given options.
func New(opts Options) *Translator { return &Translator{Opts: opts} }

// Translate builds the translated block starting at addr (IR form,
// before register allocation) and returns a copy the caller owns. Most
// callers want TranslateFinal.
func (t *Translator) Translate(mem CodeReader, addr uint32) (*Block, error) {
	blk, err := t.translate(mem, addr, MaxBlockInsts)
	if err != nil {
		return nil, err
	}
	own := *blk.Block
	own.Code, own.LabelPos = slices.Clone(own.Code), slices.Clone(own.LabelPos)
	blk.Block = &own
	return &blk, nil
}

// decode fills the translator's decode buffer with the block at addr
// and its liveness vector with the flag bits live after each
// instruction.
func (t *Translator) decode(mem CodeReader, addr uint32, cap int) ([]x86.Inst, []uint32, error) {
	insts, err := discoverBlock(mem, addr, cap, t.insts)
	if err != nil {
		return nil, nil, err
	}
	t.insts = insts
	t.live = flagLiveness(insts, mem, t.Opts.ConservativeFlags, t.live)
	return insts, t.live, nil
}

// translate lowers the block at addr into the translator's builder:
// the IR of the Block it returns is scratch, gone at the next call.
func (t *Translator) translate(mem CodeReader, addr uint32, cap int) (Block, error) {
	insts, live, err := t.decode(mem, addr, cap)
	if err != nil {
		return Block{}, err
	}
	t.bl.Reset(addr)
	lo := lowerer{bl: &t.bl}
	for i := range insts {
		if lo.bl.VRegsInUse() > maxVRegsPerBlock && i < len(insts)-1 && !insts[i].EndsBlock() {
			// Out of temporaries: end the block early with a chain to
			// the next instruction.
			lo.endEarly(insts[i].Addr)
			insts = insts[:i]
			break
		}
		if err := lo.lower(&insts[i], live[i]); err != nil {
			return Block{}, err
		}
	}
	last := insts[len(insts)-1]
	end := last.Next()
	if !last.EndsBlock() && !lo.ended {
		// Block hit the size cap: chain to the next instruction.
		lo.bl.Chain(end)
		lo.kind, lo.target = ExitFall, end
	}
	blk, err := lo.finish(end-addr, len(insts))
	if err != nil {
		return Block{}, &Error{Addr: addr, Reason: err.Error()}
	}
	return blk, nil
}
