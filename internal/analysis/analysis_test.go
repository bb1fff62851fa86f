package analysis

import (
	"math/rand"
	"testing"

	"repro/internal/ir"
	"repro/internal/irtext"
)

func diamond(t *testing.T) *ir.Function {
	t.Helper()
	m, err := irtext.Parse(`
define i32 @d(i1 %c, i32 %x) {
entry:
  br i1 %c, label %a, label %b
a:
  br label %join
b:
  br label %join
join:
  %p = phi i32 [ 1, %a ], [ 2, %b ]
  ret i32 %p
}`)
	if err != nil {
		t.Fatal(err)
	}
	return m.FuncByName("d")
}

func blockByName(f *ir.Function, name string) *ir.Block {
	for _, b := range f.Blocks {
		if b.Name() == name {
			return b
		}
	}
	return nil
}

func TestDomTreeDiamond(t *testing.T) {
	f := diamond(t)
	dt := NewDomTree(f)
	entry := blockByName(f, "entry")
	a := blockByName(f, "a")
	b := blockByName(f, "b")
	join := blockByName(f, "join")

	if dt.IDom(entry) != nil {
		t.Error("entry has an idom")
	}
	for _, blk := range []*ir.Block{a, b, join} {
		if dt.IDom(blk) != entry {
			t.Errorf("idom(%s) = %v, want entry", blk.Name(), dt.IDom(blk))
		}
	}
	if !dt.Dominates(entry, join) || dt.Dominates(a, join) || dt.Dominates(join, a) {
		t.Error("dominance over the diamond is wrong")
	}
	if !dt.Dominates(a, a) {
		t.Error("blocks must dominate themselves")
	}
}

func TestDomFrontierDiamond(t *testing.T) {
	f := diamond(t)
	dt := NewDomTree(f)
	df := NewDomFrontier(dt)
	a := blockByName(f, "a")
	join := blockByName(f, "join")
	if got := df.of(a); len(got) != 1 || got[0] != join {
		t.Errorf("DF(a) = %v, want [join]", got)
	}
	if got := df.of(blockByName(f, "entry")); len(got) != 0 {
		t.Errorf("DF(entry) = %v, want empty", got)
	}
	idf := df.Iterated([]*ir.Block{a}, nil)
	if len(idf) != 1 || idf[0] != join {
		t.Errorf("IDF({a}) = %v", idf)
	}
}

func TestReversePostorderStartsAtEntry(t *testing.T) {
	f := diamond(t)
	rpo := ReversePostorder(f)
	if rpo[0] != f.Entry() {
		t.Error("RPO must start at the entry")
	}
	if len(rpo) != 4 {
		t.Errorf("RPO has %d blocks, want 4", len(rpo))
	}
	// Every block appears before its dominated successors in a DAG.
	pos := map[*ir.Block]int{}
	for i, b := range rpo {
		pos[b] = i
	}
	if pos[blockByName(f, "join")] < pos[blockByName(f, "a")] {
		t.Error("join precedes a in RPO of a DAG")
	}
}

// bruteDominates: a dominates b iff removing a makes b unreachable.
func bruteDominates(f *ir.Function, a, b *ir.Block) bool {
	if a == b {
		return true
	}
	if b == f.Entry() {
		return false // only the entry dominates the entry
	}
	if a == f.Entry() {
		return true // the entry dominates every reachable block
	}
	seen := map[*ir.Block]bool{a: true}
	var stack []*ir.Block
	stack = append(stack, f.Entry())
	seen[f.Entry()] = true
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range blk.Succs() {
			if s == b {
				return false
			}
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return true
}

// randomCFG builds a random single-entry CFG with n blocks: returns,
// branches, conditional branches and switches with uniformly drawn
// targets, so unreachable blocks, self loops, irreducible loops and
// duplicate edges (br c, X, X; a switch with two cases to one block) all
// turn up. Nothing branches to the entry, which the verifier forbids.
func randomCFG(rng *rand.Rand, n int) *ir.Function {
	f := ir.NewFunction("r", ir.FuncOf(ir.Void))
	blocks := make([]*ir.Block, n)
	for i := range blocks {
		blocks[i] = f.NewBlockIn("")
	}
	pick := func() *ir.Block { return blocks[1+rng.Intn(n-1)] }
	for _, b := range blocks {
		kind := rng.Intn(4)
		if n == 1 {
			kind = 0
		}
		switch kind {
		case 0:
			b.Append(ir.NewRet(nil))
		case 1:
			b.Append(ir.NewBr(pick()))
		case 2:
			b.Append(ir.NewCondBr(ir.True, pick(), pick()))
		default:
			var cases []ir.SwitchCase
			for c := rng.Intn(4); c >= 0; c-- {
				cases = append(cases, ir.SwitchCase{Val: ir.NewConstInt(ir.I32, int64(c)), Dest: pick()})
			}
			b.Append(ir.NewSwitch(ir.NewConstInt(ir.I32, 0), pick(), cases...))
		}
	}
	return f
}

// TestDomTreeAgainstBruteForce cross-checks the CHK dominator tree with
// the path-blocking definition of dominance on random CFGs.
func TestDomTreeAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		f := randomCFG(rng, 2+rng.Intn(8))
		dt := NewDomTree(f)
		reach := reachableSet(f)
		for _, a := range f.Blocks {
			for _, b := range f.Blocks {
				if !reach[a] || !reach[b] {
					continue
				}
				want := bruteDominates(f, a, b)
				got := dt.Dominates(a, b)
				if got != want {
					t.Fatalf("trial %d: Dominates(%p,%p) = %v, brute force %v\n%s",
						trial, a, b, got, want, f)
				}
			}
		}
	}
}

// TestRandomCFGsAgainstNaive holds the tree, the frontier and the
// iterated frontier to the naive set-based reference (reference_test.go)
// on hostile random shapes.
func TestRandomCFGsAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	dups, unreachable := 0, 0
	for trial := 0; trial < 300; trial++ {
		f := randomCFG(rng, 1+rng.Intn(14))
		ref := CheckAgainstNaive(t, f, rng)
		for _, b := range f.Blocks {
			seen := map[*ir.Block]bool{}
			for _, s := range b.Succs() {
				if seen[s] && ref.Reach[b] {
					dups++
				}
				seen[s] = true
			}
			if !ref.Reach[b] {
				unreachable++
			}
		}
	}
	if dups == 0 || unreachable == 0 {
		t.Fatalf("random CFGs exercised %d duplicate edges and %d unreachable blocks; want both", dups, unreachable)
	}
}

// TestStaleTreeNeverAnswersForAnotherBlock: a tree describes the block
// list it was built over. A block appended afterwards, a removed block,
// and the survivors a removal renumbered all read as unreachable —
// never as whichever block used to sit at their index.
func TestStaleTreeNeverAnswersForAnotherBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 100; trial++ {
		f := randomCFG(rng, 3+rng.Intn(10))
		dt := NewDomTree(f)
		before := map[*ir.Block]*ir.Block{}
		for _, b := range f.Blocks {
			before[b] = dt.IDom(b)
		}
		check := func(when string) {
			for b, idom := range before {
				got := dt.IDom(b)
				if got != nil && got != idom {
					t.Fatalf("trial %d, %s: IDom answers %p for a block whose idom was %p", trial, when, got, idom)
				}
				if !dt.IsReachable(b) && (got != nil || dt.Children(b) != nil) {
					t.Fatalf("trial %d, %s: unreachable block has tree links", trial, when)
				}
			}
		}

		added := f.NewBlockIn("late")
		added.Append(ir.NewRet(nil))
		if dt.IsReachable(added) || dt.IDom(added) != nil || dt.Children(added) != nil {
			t.Fatalf("trial %d: block appended after the build reads as reachable", trial)
		}
		if !dt.Dominates(f.Entry(), added) || dt.Dominates(added, f.Entry()) {
			t.Fatalf("trial %d: appended block must be dominated vacuously and dominate nothing", trial)
		}
		check("after append")

		// Detach a middle block the way EraseBlocks would, after cutting
		// every reference to it.
		victim := f.Blocks[1+rng.Intn(len(f.Blocks)-2)]
		for _, u := range append([]ir.Use(nil), ir.UsesOf(victim)...) {
			u.User.SetOperand(u.Index, added)
		}
		f.EraseBlocks([]*ir.Block{victim})
		if dt.IsReachable(victim) || dt.IDom(victim) != nil {
			t.Fatalf("trial %d: removed block reads as reachable", trial)
		}
		check("after removal")
	}
}

func TestDominatesUsePhiRule(t *testing.T) {
	f := diamond(t)
	dt := NewDomTree(f)
	join := blockByName(f, "join")
	phi := join.First()
	// Constants always dominate.
	if !dt.DominatesUse(phi.IncomingValue(0), phi, 0) {
		t.Error("constant incoming should dominate")
	}
}

func TestLoopDominance(t *testing.T) {
	m := irtext.MustParse(`
define i32 @loop(i32 %n) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %inc, %body ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %body, label %exit
body:
  %inc = add i32 %i, 1
  br label %head
exit:
  ret i32 %i
}`)
	f := m.FuncByName("loop")
	dt := NewDomTree(f)
	head := blockByName(f, "head")
	body := blockByName(f, "body")
	exit := blockByName(f, "exit")
	if !dt.Dominates(head, body) || !dt.Dominates(head, exit) {
		t.Error("loop header must dominate body and exit")
	}
	if dt.Dominates(body, head) {
		t.Error("body does not dominate header")
	}
}
