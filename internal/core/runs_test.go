package core

import (
	"context"
	"testing"

	"repro/internal/align"
	"repro/internal/ir"
)

// TestOneBlockPerRun: the generator builds one block per straight-line
// run of rows. On the 400-pair trial sample and the 50 family bodies of
// BenchmarkRepairSSA, right after assignPhiIncomings, no block ends in an
// unconditional branch to an instruction row's block that it alone
// reaches — a chain Simplify would have to collapse — and buildCFG made
// the entry plus one block per row that is not fused, with the fused rows
// counted by fusedRows, the rule restated over the members'
// linearizations.
func TestOneBlockPerRun(t *testing.T) {
	var perRow, perRun int
	check := func(g *generator, items []famItem) {
		t.Helper()
		perRow += 1 + len(items)
		perRun += len(g.blockNum)
		if got, want := len(g.blockNum), 1+len(items)-fusedRows(g.fns, items); got != want {
			t.Errorf("%s: buildCFG made %d blocks for %d rows, want %d", names(g.fns), got, len(items), want)
		}
		for _, b := range g.merged.Blocks {
			br := b.Term()
			if br.Op() != ir.OpBr || br.IsCondBr() {
				continue
			}
			s := br.Operand(0).(*ir.Block)
			if s.Index() == 0 || s.Index() >= len(g.blockNum) {
				continue // the entry, or not a row's block
			}
			row := items[g.blockNum[s.Index()]-1]
			if !row.ents[row.firstMember()].IsLabel() && s.UniquePred() == b {
				t.Errorf("%s: %%%s ends in a branch to %%%s, an instruction row's block only it reaches\n%s", names(g.fns), b.Name(), s.Name(), g.merged)
			}
		}
	}
	for _, p := range trialPairs(t, trialBuildPairs) {
		tables := getTables()
		items := pairItems(p.ares, tables)
		check(generate(ir.NewModule(), []*ir.Function{p.f1, p.f2}, "merged", items, p.plan, DefaultOptions(), tables), items)
	}
	t.Logf("%d pairs: buildCFG made %d blocks, %d with one block per row", trialBuildPairs, perRun, perRow)
	perRow, perRun = 0, 0
	for _, g := range unrepairedFamilies(t, repairBodies) {
		items, err := alignFamilyCtx(context.Background(), g.fns, g.opts, new(Stats), new(genTables))
		if err != nil {
			t.Fatal(err)
		}
		check(g, items)
	}
	t.Logf("%d family bodies: buildCFG made %d blocks, %d with one block per row", repairBodies, perRun, perRow)
}

// fusedRows counts the rows whose instruction goes into an earlier row's
// block: an instruction row t whose members' previous entries, in their
// own linearizations, all sit in one row r with as many members as t.
func fusedRows(fns []*ir.Function, items []famItem) int {
	rowOf := make([]map[align.Entry]int, len(fns))
	prev := make([]map[align.Entry]align.Entry, len(fns))
	for j, f := range fns {
		rowOf[j], prev[j] = map[align.Entry]int{}, map[align.Entry]align.Entry{}
		seq := align.Linearize(f)
		for i := 1; i < len(seq); i++ {
			prev[j][seq[i]] = seq[i-1]
		}
	}
	for t, row := range items {
		for j, e := range row.ents {
			if e != nil {
				rowOf[j][*e] = t
			}
		}
	}
	fused := 0
	for _, row := range items {
		if row.ents[row.firstMember()].IsLabel() {
			continue
		}
		r := -1
		for j, e := range row.ents {
			if e == nil {
				continue
			}
			switch p := rowOf[j][prev[j][*e]]; {
			case r == -1:
				r = p
			case p != r:
				r = -2
			}
		}
		if r >= 0 && items[r].memberCount() == row.memberCount() {
			fused++
		}
	}
	return fused
}

func names(fns []*ir.Function) string {
	s := ""
	for i, f := range fns {
		if i > 0 {
			s += "+"
		}
		s += "@" + f.Name()
	}
	return s
}
