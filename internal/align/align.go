// Package align implements the sequence-alignment core shared by FMSA
// and SalSSA: functions are linearized into sequences of labels and
// instructions, and a Needleman–Wunsch dynamic program finds the optimal
// pairing of mergeable entries (match-or-gap scoring: incompatible
// entries are never aligned against each other, they take gaps).
//
// The hot path is allocation-free in steady state: mergeability is
// decided by comparing interned class IDs (see classes.go) instead of
// re-walking types per DP cell, linearizations and class vectors are
// cached per function for a whole run (see cache.go), and the DP fills
// only the cells that can lie on a good enough alignment (see band.go),
// out of pooled scratch (see pool.go).
//
// The DP matrix size is accounted and reported because it dominates the
// memory profile of function merging (the paper's Figure 22).
package align

import (
	"context"
	"fmt"

	"repro/internal/ir"
)

// Entry is one element of a linearized function: either a block label or
// an instruction.
type Entry struct {
	Label *ir.Block
	Instr *ir.Instruction
}

// IsLabel reports whether the entry is a block label.
func (e Entry) IsLabel() bool { return e.Label != nil }

// String returns a short debug form.
func (e Entry) String() string {
	if e.IsLabel() {
		return "label %" + e.Label.Name()
	}
	return e.Instr.Op().String()
}

// Linearize flattens f into a sequence of labels and instructions in
// block order. Phi-nodes and landingpads are excluded: SalSSA treats
// them as attached to their block's label (the paper aligns neither),
// and FMSA runs after register demotion, which removes phis entirely.
// The sequence length is counted up front so the result is built in one
// allocation.
func Linearize(f *ir.Function) []Entry {
	n := 0
	for _, b := range f.Blocks {
		n++
		for _, in := range b.Instrs() {
			if in.Op() == ir.OpPhi || in.Op() == ir.OpLandingPad {
				continue
			}
			n++
		}
	}
	seq := make([]Entry, 0, n)
	for _, b := range f.Blocks {
		seq = append(seq, Entry{Label: b})
		for _, in := range b.Instrs() {
			if in.Op() == ir.OpPhi || in.Op() == ir.OpLandingPad {
				continue
			}
			seq = append(seq, Entry{Instr: in})
		}
	}
	return seq
}

// Seq is a linearized function together with its mergeability-class
// vector: Classes[i] is the Interner class of Entries[i]. Seqs sharing
// one Interner (one Cache) are alignable against each other.
type Seq struct {
	Entries []Entry
	Classes []int32
}

// NewSeq linearizes f and interns its class vector with it.
func NewSeq(f *ir.Function, it *Interner) Seq {
	entries := Linearize(f)
	return Seq{Entries: entries, Classes: it.Classes(entries, nil)}
}

// Mergeable reports whether two entries may be aligned as a matching
// pair. Labels always match labels. Instructions match when they have
// the same opcode, result type, operand-type vector and compatible
// auxiliary data; operands that must remain constant after merging
// (switch case values, callees, struct GEP indices, alloca types) must
// be identical, since they cannot be selected by the function identifier
// at run time.
//
// Mergeable is the specification; the DP inner loops decide the same
// predicate by comparing interned class IDs (ClassesMatch). The
// differential property test in classes_test.go keeps the two in lock
// step.
func Mergeable(a, b Entry) bool {
	if a.IsLabel() || b.IsLabel() {
		return a.IsLabel() && b.IsLabel()
	}
	x, y := a.Instr, b.Instr
	if x.Op() != y.Op() || !ir.TypesEqual(x.Type(), y.Type()) {
		return false
	}
	if x.NumOperands() != y.NumOperands() {
		return false
	}
	for i := 0; i < x.NumOperands(); i++ {
		if !ir.TypesEqual(x.Operand(i).Type(), y.Operand(i).Type()) {
			return false
		}
	}
	switch x.Op() {
	case ir.OpICmp, ir.OpFCmp:
		return x.Pred == y.Pred
	case ir.OpAlloca:
		return ir.TypesEqual(x.AllocTy, y.AllocTy)
	case ir.OpCall, ir.OpInvoke:
		// Different callees would need a function-pointer select; like the
		// prototype, restrict merging to identical callees.
		return x.Callee() == y.Callee()
	case ir.OpSwitch:
		cx, cy := x.SwitchCases(), y.SwitchCases()
		if len(cx) != len(cy) {
			return false
		}
		for i := range cx {
			if cx[i].Val.V != cy[i].Val.V {
				return false
			}
		}
		return true
	case ir.OpGEP:
		// Struct field indices must remain literal constants.
		tx, ok := x.Operand(0).Type().(*ir.PointerType)
		if !ok {
			return false
		}
		cur := tx.Elem
		for i := 2; i < x.NumOperands(); i++ {
			st, isStruct := cur.(*ir.StructType)
			if isStruct {
				ix, okx := x.Operand(i).(*ir.ConstInt)
				iy, oky := y.Operand(i).(*ir.ConstInt)
				if !okx || !oky || ix.V != iy.V {
					return false
				}
				cur = st.Fields[ix.V]
				continue
			}
			if at, isArr := cur.(*ir.ArrayType); isArr {
				cur = at.Elem
			}
		}
		return true
	}
	return true
}

// Pair is one row of an alignment: a matched pair (both non-nil) or a
// gap (exactly one non-nil).
type Pair struct {
	A, B *Entry
}

// IsMatch reports whether the pair aligns two entries.
func (p Pair) IsMatch() bool { return p.A != nil && p.B != nil }

// Options configures the alignment scoring.
type Options struct {
	// InstrMatchScore is the score for aligning two mergeable
	// instructions (default 2: one instruction saved, roughly).
	InstrMatchScore int32
	// LabelMatchScore is the score for aligning two labels (default 1).
	LabelMatchScore int32
	// GapPenalty is subtracted per gap entry (default 0; with
	// match-or-gap scoring any positive match weight already maximises
	// matched entries).
	GapPenalty int32
	// MaxCells caps the DP matrix size; alignments needing more cells
	// fail with ErrTooLarge. Zero means no cap.
	MaxCells int64
	// Linear selects Hirschberg's divide-and-conquer alignment: the same
	// optimal score in O(n+m) memory for roughly twice the cells. The
	// default kernel already spends time and memory only on the band a
	// similar pair needs; Linear is what keeps an unrelated giant pair,
	// whose band is the whole matrix, in O(n+m) as well. An extension
	// beyond the paper, which uses the quadratic DP.
	Linear bool
	// MinScore, when positive, floors the useful alignment score: an
	// alignment whose optimum is below it fails with ErrBelowBound, and
	// the solvers use the floor to do less — the default kernel fills only
	// the cells that can lie on an alignment scoring MinScore or more,
	// Linear pre-scans with a per-row abort. Both arguments need gaps to
	// be free, so the floor is ignored under a non-zero GapPenalty. The
	// driver's planning funnel derives MinScore from the admissible profit
	// bound (costmodel.PairBound.ScoreNeeded), making ErrBelowBound a
	// proof that the pair cannot clear the profitability gate.
	MinScore int32
}

// DefaultOptions returns the scoring used throughout the evaluation.
func DefaultOptions() Options {
	return Options{InstrMatchScore: 2, LabelMatchScore: 1, GapPenalty: 0}
}

// weight is the score an entry of class c adds when it is matched.
func (o Options) weight(c int32) int32 {
	switch c {
	case ClassLabel:
		return o.LabelMatchScore
	case classSolo:
		return 0
	}
	return o.InstrMatchScore
}

// ErrTooLarge is returned when the DP matrix would exceed Options.MaxCells.
var ErrTooLarge = fmt.Errorf("align: sequences too large")

// ErrBelowBound is returned by a bounded alignment (Options.MinScore >
// 0) that proved the optimal score falls below the floor. No pairs are
// produced; with an admissibly derived floor the caller may treat the
// pair as unprofitable without aligning it.
var ErrBelowBound = fmt.Errorf("align: optimal score below MinScore")

// Result is the outcome of an alignment.
type Result struct {
	Pairs []Pair
	// Score is the DP objective value.
	Score int32
	// Matches counts matched pairs (labels + instructions).
	Matches int
	// InstrMatches counts matched instruction pairs only.
	InstrMatches int
	// MatrixBytes is the footprint of the paper's DP matrices, the
	// dominant memory cost of merging (Figure 22): (n+1)(m+1) cells of 5
	// bytes for the quadratic solver, whatever part of them the kernel
	// went on to fill, and the peak of rows and base cases for the linear
	// one.
	MatrixBytes int64

	// filled counts the DP cells the kernel filled, over all rungs of its
	// ladder: the work actually done, where MatrixBytes is the paper's.
	filled int64

	// buf is the reusable backing store of Pairs. The backtrack fills it
	// from the end and Pairs aliases the tail, so the full capacity must
	// be remembered here — retaining only the tail slice would shed the
	// front slots on every reuse.
	buf []Pair
}

// reset clears the result for reuse, keeping the pair buffer.
func (r *Result) reset() {
	r.Pairs = nil
	r.Score = 0
	r.Matches = 0
	r.InstrMatches = 0
	r.MatrixBytes = 0
	r.filled = 0
}

// Needleman–Wunsch backtrack directions.
const (
	dirDiag byte = iota + 1
	dirUp        // gap in B (consume A)
	dirLeft      // gap in A (consume B)
)

// Align computes the optimal global alignment of the two sequences under
// match-or-gap scoring.
func Align(a, b []Entry, opts Options) (*Result, error) {
	return AlignCtx(context.Background(), a, b, opts)
}

// AlignCtx is Align with cancellation: the DP fills row by row and the
// context is polled between rows, so a cancelled alignment returns
// ctx.Err() without finishing the fill.
//
// The entries are interned into a transient class universe first; when
// aligning many pairs, intern once through a Cache (or NewSeq) and use
// AlignSeqsCtx instead.
func AlignCtx(ctx context.Context, a, b []Entry, opts Options) (*Result, error) {
	it := NewInterner()
	sa := Seq{Entries: a, Classes: it.Classes(a, nil)}
	sb := Seq{Entries: b, Classes: it.Classes(b, nil)}
	return AlignSeqsCtx(ctx, sa, sb, opts)
}

// AlignSeqsCtx aligns two interned sequences with the solver selected by
// opts.Linear. Both Seqs must come from the same Interner.
func AlignSeqsCtx(ctx context.Context, a, b Seq, opts Options) (*Result, error) {
	res := &Result{}
	if err := AlignSeqsInto(ctx, a, b, opts, res); err != nil {
		return nil, err
	}
	return res, nil
}

// AlignSeqsInto is AlignSeqsCtx writing into a caller-owned Result,
// reusing its Pairs capacity: together with the pooled kernel scratch
// this makes steady-state alignment allocation-free. On error the Result
// holds no pairs.
func AlignSeqsInto(ctx context.Context, a, b Seq, opts Options, res *Result) error {
	res.reset()
	if opts.Linear {
		return alignLinearSeqs(ctx, a, b, opts, res)
	}
	return alignBanded(ctx, a.Entries, b.Entries, a.Classes, b.Classes, opts, res)
}

// cancelStride is the row mask between context polls in the DP loops: a
// poll every 16 rows keeps the overhead unmeasurable while bounding the
// latency of cancellation by a few thousand cell updates.
const cancelStride = 0xf

// AlignFunctions linearizes both functions and aligns them with the
// solver selected by opts.Linear.
func AlignFunctions(f1, f2 *ir.Function, opts Options) (*Result, error) {
	return AlignFunctionsCtx(context.Background(), f1, f2, opts)
}

// AlignFunctionsCtx is AlignFunctions with cancellation plumbed into the
// DP loops of both solvers. Linearizations and class vectors are
// computed transiently; batch callers should hold a Cache instead.
func AlignFunctionsCtx(ctx context.Context, f1, f2 *ir.Function, opts Options) (*Result, error) {
	it := NewInterner()
	return AlignSeqsCtx(ctx, NewSeq(f1, it), NewSeq(f2, it), opts)
}
