package core

import (
	"context"

	"repro/internal/align"
	"repro/internal/ir"
)

// famItem is one row of a k-way alignment: for each member, the aligned
// entry of that member's linearization (nil when the member takes a gap
// at this row). An item with one non-nil entry is exclusive code; with
// two or more, the entries are mutually mergeable (equal interned
// class) and generate one merged label/instruction.
type famItem struct {
	ents []*align.Entry
}

// firstMember returns the lowest member index with an entry.
func (it famItem) firstMember() int {
	for j, e := range it.ents {
		if e != nil {
			return j
		}
	}
	panic("core: empty alignment item")
}

// memberCount returns how many members align at this row.
func (it famItem) memberCount() int {
	n := 0
	for _, e := range it.ents {
		if e != nil {
			n++
		}
	}
	return n
}

// alignFamilyCtx builds the k-way item list by progressive pairwise
// alignment: member 0 seeds the skeleton, and each later member is
// aligned against the current skeleton's linearization (representative
// entries carrying the rows' interned classes), so the pairwise solver
// is reused unchanged — no k-dimensional DP. Matched rows gain the new
// member's entry; the member's unmatched entries become new exclusive
// rows, interleaved in alignment order. For two members this is exactly
// one pairwise alignment. Alignment stats (matches, matrix bytes)
// accumulate over the rounds into stats. The rows, and every round's
// skeleton and pairwise result, live in t.
func alignFamilyCtx(ctx context.Context, fns []*ir.Function, opts Options, stats *Stats, t *genTables) ([]famItem, error) {
	k := len(fns)
	if t.in == nil {
		t.in = align.NewInterner()
	}
	it := t.in
	seqs := make([]align.Seq, k)
	total := 0
	for j, f := range fns {
		seqs[j] = align.NewSeq(f, it)
		total += len(seqs[j].Entries)
	}
	// A round adds at most its member's entries as rows, so total rows
	// bound every round's; each row's entries are the next k cells of
	// t.ents, nil (getTables) until the row's members are set.
	t.ents = resize(t.ents, k*total)
	ents := t.ents
	newRow := func() famItem {
		row := famItem{ents: ents[:k:k]}
		ents = ents[k:]
		return row
	}
	items, classes := t.items[:0], t.classes[:0]
	next, nextClasses := t.next[:0], t.nextClasses[:0]
	// The rows go back into t however the alignment ends, each as long as
	// it was written (genTables.release).
	defer func() { t.items, t.next, t.classes, t.nextClasses = items, next, classes, nextClasses }()
	for i := range seqs[0].Entries {
		row := newRow()
		row.ents[0] = &seqs[0].Entries[i]
		items = append(items, row)
		classes = append(classes, seqs[0].Classes[i])
	}
	for j := 1; j < k; j++ {
		t.skel = resize(t.skel, len(items))
		for i, row := range items {
			t.skel[i] = *row.ents[row.firstMember()]
		}
		skel := align.Seq{Entries: t.skel, Classes: classes}
		res := &t.res
		if err := align.AlignSeqsInto(ctx, skel, seqs[j], opts.Align, res); err != nil {
			return nil, err
		}
		stats.Matches += res.Matches
		stats.InstrMatches += res.InstrMatches
		stats.MatrixBytes += res.MatrixBytes
		next, nextClasses = next[:0], nextClasses[:0]
		si, mj := 0, 0
		for _, p := range res.Pairs {
			switch {
			case p.IsMatch():
				row := items[si]
				row.ents[j] = &seqs[j].Entries[mj]
				next = append(next, row)
				nextClasses = append(nextClasses, classes[si])
				si++
				mj++
			case p.A != nil:
				next = append(next, items[si])
				nextClasses = append(nextClasses, classes[si])
				si++
			default:
				row := newRow()
				row.ents[j] = &seqs[j].Entries[mj]
				next = append(next, row)
				nextClasses = append(nextClasses, seqs[j].Classes[mj])
				mj++
			}
		}
		items, next = next, items
		classes, nextClasses = nextClasses, classes
	}
	return items, nil
}
