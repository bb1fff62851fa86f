// Session workflow: open a long-lived merge engine over a module, dry-run
// a merge plan, review and filter it, apply it, then evolve the module
// and re-optimize incrementally — the loop a build service runs per
// compilation instead of paying a full index rebuild each time.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"

	repro "repro"
)

// Four sibling functions: A, B and C share one shape (C is an exact
// clone of A), D is unrelated, and E is unreferenced scaffolding.
const input = `
declare i32 @ext(i32)
declare i32 @other(i32)

define i32 @A(i32 %n) {
e:
  %a = add i32 %n, 1
  %b = mul i32 %a, 3
  %c = call i32 @ext(i32 %b)
  %d = sub i32 %c, 5
  %e2 = mul i32 %d, %a
  %f = add i32 %e2, %b
  ret i32 %f
}

define i32 @B(i32 %n) {
e:
  %a = add i32 %n, 2
  %b = mul i32 %a, 3
  %c = call i32 @ext(i32 %b)
  %d = sub i32 %c, 5
  %e2 = mul i32 %d, %a
  %f = add i32 %e2, %b
  ret i32 %f
}

define i32 @C(i32 %n) {
e:
  %a = add i32 %n, 1
  %b = mul i32 %a, 3
  %c = call i32 @ext(i32 %b)
  %d = sub i32 %c, 5
  %e2 = mul i32 %d, %a
  %f = add i32 %e2, %b
  ret i32 %f
}

define i32 @D(i32 %n) {
e:
  %a = call i32 @other(i32 %n)
  %b = xor i32 %a, 255
  ret i32 %b
}

define i32 @E(i32 %n) {
e:
  %a = shl i32 %n, 4
  %b = or i32 %a, 1
  %c = call i32 @other(i32 %b)
  ret i32 %c
}
`

func main() {
	ctx := context.Background()
	m, err := repro.ParseModule(input)
	if err != nil {
		log.Fatal(err)
	}
	opt, err := repro.New(repro.WithThreshold(2))
	if err != nil {
		log.Fatal(err)
	}

	// Open builds every index once; the session reuses them below.
	s, err := opt.Open(ctx, m)
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()

	// 1. Dry run: what would the pipeline merge? The module is untouched.
	plan, err := s.Plan(ctx)
	if err != nil {
		log.Fatal(err)
	}
	blob, _ := json.MarshalIndent(plan, "", "  ")
	fmt.Printf("proposed plan (module untouched):\n%s\n\n", blob)

	// 2. Review/filter: a service could ship this JSON elsewhere, have
	// it approved, drop entries it dislikes — here we keep everything.
	rep, err := s.Apply(ctx, plan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("applied: %d merges, %d folds, %d -> %d bytes\n\n",
		len(rep.Merges), len(rep.Folds), rep.BaselineBytes, rep.FinalBytes)

	// 3. The module evolves: @E is deleted by its owner. Report the
	// delta instead of reopening — only @E's index entries are touched.
	m.RemoveFunc(m.FuncByName("E"))
	if err := s.Update(ctx, "E"); err != nil {
		log.Fatal(err)
	}

	// 4. Re-optimize incrementally. Report.OutcomeHits counts the trials
	// served from the session's cross-run memo instead of re-aligning;
	// once the module stops changing, every trial comes from the memo.
	rep, err = s.Optimize(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("re-optimize after delta: %d merges, %d of %d trials memo-served\n",
		len(rep.Merges), rep.OutcomeHits, rep.Attempts)
	rep, err = s.Optimize(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("steady-state re-optimize: %d merges, %d of %d trials memo-served\n\n",
		len(rep.Merges), rep.OutcomeHits, rep.Attempts)

	if err := repro.VerifyModule(m); err != nil {
		log.Fatal(err)
	}
	fmt.Println(repro.FormatModule(m))
}
