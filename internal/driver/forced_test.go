package driver

// forced_test.go pins the stage-3 forced term rule by rule: one
// hand-written pair per counting rule and per exclusion, each asserting
// what core.CountForced finds in the pair's alignment and that the real
// trial — generate, simplify, price — stays within the bound the count
// tightens.

import (
	"testing"

	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/irtext"
	"repro/internal/transform"
)

const forcedPrelude = `
@g = global i32 0
@lps = external global {i8*, i32}
declare void @h(i32)
declare i32 @k(i32)
declare i32 @may()
`

var forcedCases = []struct {
	name string
	src  string
	want core.Forced
	// reducible marks a pair the forced term must not apply to.
	reducible bool
}{
	{
		// Two constants select; the swap takes the cheaper of the two operand orders.
		name: "commutative-swap",
		src: `
define i32 @f1(i32 %a) {
entry:
  %r = add i32 %a, 5
  ret i32 %r
}
define i32 @f2(i32 %a) {
entry:
  %r = add i32 7, %a
  ret i32 %r
}`,
		want: core.Forced{Selects: 1},
	},
	{
		// Non-commutative operands are counted in place.
		name: "in-place",
		src: `
define i32 @f1(i32 %a) {
entry:
  %r = sub i32 %a, 5
  ret i32 %r
}
define i32 @f2(i32 %a) {
entry:
  %r = sub i32 7, %a
  ret i32 %r
}`,
		want: core.Forced{Selects: 2},
	},
	{
		// Arguments sharing a unified slot fold, distinct slots select.
		name: "argument-slots",
		src: `
define i32 @f1(i32 %a, i32 %b) {
entry:
  %x = call i32 @k(i32 %a)
  %y = call i32 @k(i32 %b)
  %r = sub i32 %x, %y
  ret i32 %r
}
define i32 @f2(i64 %w, i32 %a, i32 %b) {
entry:
  %x = call i32 @k(i32 %a)
  %y = call i32 @k(i32 %a)
  %r = sub i32 %x, %y
  ret i32 %r
}`,
		// f2's %a shares f1's %a slot despite the i64 before it; the
		// second call reads slot 1 in f1 and slot 0 in f2.
		want: core.Forced{Selects: 1},
	},
	{
		// A matched definition selects against another row's, not against its own partner.
		name: "other-row",
		src: `
define i32 @f1(i32 %a) {
entry:
  %x = call i32 @k(i32 %a)
  %y = call i32 @k(i32 %x)
  %r = call i32 @k(i32 %x)
  ret i32 %r
}
define i32 @f2(i32 %a) {
entry:
  %x = call i32 @k(i32 %a)
  %y = call i32 @k(i32 %x)
  %r = call i32 @k(i32 %y)
  ret i32 %r
}`,
		want: core.Forced{Selects: 1},
	},
	{
		// Two exclusive definitions coalesce: no select; one dispatch, two rejoins.
		name: "coalesced-arms",
		src: `
define i32 @f1(i32 %a) {
entry:
  %x = mul i32 %a, 3
  %r = call i32 @k(i32 %x)
  ret i32 %r
}
define i32 @f2(i32 %a) {
entry:
  %y = sdiv i32 %a, 3
  %r = call i32 @k(i32 %y)
  ret i32 %r
}`,
		want: core.Forced{FidBranches: 1, Rejoins: 2},
	},
	{
		// Select c, x, undef folds.
		name: "undef",
		src: `
define i32 @f1(i32 %a) {
entry:
  %r = call i32 @k(i32 undef)
  ret i32 %r
}
define i32 @f2(i32 %a) {
entry:
  %r = call i32 @k(i32 %a)
  ret i32 %r
}`,
	},
	{
		// Phi operands are never counted.
		name: "phi",
		src: `
define i32 @f1(i32 %a, i32 %n) {
entry:
  br label %loop
loop:
  %i = phi i32 [ %a, %entry ], [ %j, %loop ]
  %j = call i32 @k(i32 %i)
  %c = icmp slt i32 %j, %n
  br i1 %c, label %loop, label %exit
exit:
  ret i32 %j
}
define i32 @f2(i32 %a, i32 %n) {
entry:
  br label %loop
loop:
  %i = phi i32 [ %a, %entry ], [ %j, %loop ]
  %j = call i32 @k(i32 %n)
  %c = icmp slt i32 %j, %i
  br i1 %c, label %loop, label %exit
exit:
  ret i32 %j
}`,
	},
	{
		// Landingpad values are never counted.
		name: "landingpad",
		src: `
define i32 @f1(i32 %a) {
entry:
  %v = invoke i32 @may() to label %ok unwind label %pad
ok:
  ret i32 %v
pad:
  %lp = landingpad cleanup
  %q = load {i8*, i32}, {i8*, i32}* @lps
  store {i8*, i32} %q, {i8*, i32}* @lps
  resume {i8*, i32} %lp
}
define i32 @f2(i32 %a) {
entry:
  %v = invoke i32 @may() to label %ok unwind label %pad
ok:
  ret i32 %v
pad:
  %lp = landingpad cleanup
  %q = load {i8*, i32}, {i8*, i32}* @lps
  store {i8*, i32} %q, {i8*, i32}* @lps
  resume {i8*, i32} %q
}`,
	},
	{
		// An inserted instruction: dispatch around it and one rejoin.
		name: "insertion",
		src: `
define i32 @f1(i32 %a) {
entry:
  %x = mul i32 %a, 3
  %r = call i32 @k(i32 %x)
  ret i32 %r
}
define i32 @f2(i32 %a) {
entry:
  %x = mul i32 %a, 3
  store i32 %x, i32* @g
  %r = call i32 @k(i32 %x)
  ret i32 %r
}`,
		want: core.Forced{FidBranches: 1, Rejoins: 1},
	},
	{
		// A run rejoining at a matched br: its branch only replaces that one.
		name: "rejoin-into-branch",
		src: `
define void @f1(i32 %a, i32 %n) {
entry:
  store i32 %a, i32* @g
  br label %loop
loop:
  %v = load i32, i32* @g
  %c = icmp slt i32 %v, %n
  br i1 %c, label %loop, label %exit
exit:
  ret void
}
define void @f2(i32 %a, i32 %n) {
entry:
  store i32 %a, i32* @g
  call void @h(i32 %n)
  br label %loop
loop:
  %v = load i32, i32* @g
  %c = icmp slt i32 %v, %n
  br i1 %c, label %loop, label %exit
exit:
  ret void
}`,
		want: core.Forced{FidBranches: 1},
	},
	{
		// A bypassed br and no rejoin: the dispatch is that branch made conditional.
		name: "bypass",
		src: `
define void @f1(i32 %a, i32 %n) {
entry:
  store i32 %a, i32* @g
  br label %loop
loop:
  %v = load i32, i32* @g
  %c = icmp slt i32 %v, %n
  br i1 %c, label %loop, label %exit
exit:
  ret void
}
define void @f2(i32 %a, i32 %n) {
entry:
  store i32 %a, i32* @g
  %y = sdiv i32 %a, %n
  switch i32 %y, label %d [ i32 1, label %p ]
p:
  ret void
d:
  unreachable
}`,
		want: core.Forced{BranchUpgrades: 1},
	},
	{
		// Matched br pair to unmatched labels: it absorbs its label selection.
		name: "absorbed-label-selection",
		src: `
define void @f1(i32 %a, i32 %n) {
entry:
  store i32 %a, i32* @g
  br label %X
X:
  %v = load i32, i32* @g
  %c = icmp slt i32 %v, %n
  br i1 %c, label %X, label %Z
Z:
  call void @h(i32 1)
  call void @h(i32 2)
  call void @h(i32 3)
  call void @h(i32 4)
  ret void
}
define void @f2(i32 %a, i32 %n) {
entry:
  store i32 %a, i32* @g
  br label %Y
W:
  call void @h(i32 1)
  call void @h(i32 2)
  call void @h(i32 3)
  call void @h(i32 4)
  ret void
Y:
  %v = load i32, i32* @g
  %c = icmp slt i32 %v, %n
  br i1 %c, label %Y, label %W
}`,
		want: core.Forced{BranchUpgrades: 1},
	},
	{
		// Swapped targets take the xor rewrite and count once.
		name: "xor-branch",
		src: `
define void @f1(i32 %a) {
entry:
  %c = icmp slt i32 %a, 0
  br i1 %c, label %neg, label %pos
neg:
  call void @h(i32 1)
  ret void
pos:
  call void @h(i32 2)
  ret void
}
define void @f2(i32 %a) {
entry:
  %c = icmp slt i32 %a, 0
  br i1 %c, label %pos, label %neg
neg:
  call void @h(i32 1)
  ret void
pos:
  call void @h(i32 2)
  ret void
}`,
		want: core.Forced{LabelSelections: 1},
	},
	{
		// A label selection between a forwarding block and its target folds.
		name: "forwarding-target",
		src: `
define i32 @f1(i32 %a) {
entry:
  %c = icmp slt i32 %a, 0
  br i1 %c, label %fwd, label %join
fwd:
  br label %join
join:
  %p = phi i32 [ 1, %fwd ], [ 2, %entry ]
  ret i32 %p
}
define i32 @f2(i32 %a) {
entry:
  %c = icmp slt i32 %a, 0
  br i1 %c, label %join, label %fwd
fwd:
  br label %join
join:
  %p = phi i32 [ 1, %fwd ], [ 2, %entry ]
  ret i32 %p
}`,
	},
	{
		// A reducible original: the forced term does not apply.
		name: "reducible",
		src: `
define i32 @f1(i32 %a) {
entry:
  %dead = mul i32 %a, 3
  %r = add i32 %a, 5
  ret i32 %r
}
define i32 @f2(i32 %a) {
entry:
  %r = add i32 %a, 7
  ret i32 %r
}`,
		want:      core.Forced{Selects: 1, FidBranches: 1, Rejoins: 1},
		reducible: true,
	},
}

func TestForcedCutTable(t *testing.T) {
	for _, target := range []costmodel.Target{costmodel.X86_64, costmodel.Thumb} {
		for _, tc := range forcedCases {
			t.Run(target.String()+"/"+tc.name, func(t *testing.T) {
				m := irtext.MustParse(forcedPrelude + tc.src)
				f1, f2 := m.FuncByName("f1"), m.FuncByName("f2")
				it := align.NewInterner()
				s1, s2 := align.NewSeq(f1, it), align.NewSeq(f2, it)
				opts := core.DefaultOptions()
				ares, err := align.AlignSeqsCtx(t.Context(), s1, s2, opts.Align)
				if err != nil {
					t.Fatal(err)
				}
				plan, err := core.PlanParams(f1, f2)
				if err != nil {
					t.Fatal(err)
				}
				n1, n2 := core.NewNumbering(f1), core.NewNumbering(f2)
				if got := core.CountForced(ares.Pairs, &n1, &n2, plan); got != tc.want {
					t.Errorf("CountForced = %+v, want %+v", got, tc.want)
				}

				p1 := costmodel.NewFuncProfile(f1, target, s1)
				p2 := costmodel.NewFuncProfile(f2, target, s2)
				if got := !(p1.Irreducible() && p2.Irreducible()); got != tc.reducible {
					t.Fatalf("pair reducible = %v, want %v", got, tc.reducible)
				}
				bound := costmodel.Bound(p1, p2, target).Fixed + costmodel.MatchedPairBytes(ares.Pairs, target)
				cut := costmodel.ForcedCut(p1, p2, ares.Pairs, target, nil)
				if want := costmodel.ForcedBytes(tc.want, target); cut != want {
					// Every pair of the table unifies to the minimum arity,
					// so the cut is the forced bytes alone.
					t.Errorf("ForcedCut = %d, want %d", cut, want)
				}

				before := costmodel.FuncBytes(f1, target) + costmodel.FuncBytes(f2, target)
				merged, _, err := core.MergeAlignedCtx(t.Context(), m, f1, f2, "merged", ares, opts)
				if err != nil {
					t.Fatal(err)
				}
				transform.Simplify(merged)
				profit := before - costmodel.FuncBytes(merged, target) -
					2*costmodel.ThunkBytes(target, len(merged.Params()))
				if !tc.reducible {
					bound -= cut
				}
				t.Logf("profit %d, bound %d, forced cut %d", profit, bound, cut)
				if profit > bound {
					t.Errorf("profit %d exceeds the bound %d (forced cut %d)\n%s", profit, bound, cut, merged)
				}

				// The funnel applies exactly this bound: against gate 0 the
				// trial is skipped if and only if the bound rules it out.
				g := trialGate{on: true, bd: costmodel.BoundLazy(p1, p2, target), p1: p1, p2: p2}
				tr := &trial{f1: f1, f2: f2}
				cfg := Config{Target: target}
				if got := tr.alignStage(t.Context(), s1, s2, opts, cfg, g, new(align.Result)) == nil; got != (bound <= 0) {
					t.Errorf("alignStage skipped = %v under bound %d", got, bound)
				}
			})
		}
	}
}
