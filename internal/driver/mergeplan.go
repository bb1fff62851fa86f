package driver

// Plan is the serializable outcome of a dry run (Session.Plan): the
// duplicate folds and merges the greedy walk would commit, in commit
// order, with nothing applied to the module. Plans round-trip through
// encoding/json, so a service can plan in one process, ship the plan
// for review or filtering, and Apply it in another.
//
// Every referenced function carries its stable structural hash
// (search.HashFunction) from planning time; Apply re-verifies the
// hashes so a plan can never silently merge functions that changed
// after it was drawn up.
type Plan struct {
	// Algorithm names the merging technique the plan was drawn for;
	// Apply refuses a plan from a different algorithm.
	Algorithm string `json:"algorithm"`
	// Threshold is the exploration threshold the plan was drawn at.
	Threshold int `json:"threshold"`
	// RunID is the Progress run identifier of the planning run.
	RunID int64 `json:"run_id"`
	// Folds lists the duplicate folds (Config.DupFold), in fold order;
	// they are applied before any merge.
	Folds []PlannedFold `json:"folds,omitempty"`
	// Merges lists the proposed merges in commit order. Later entries
	// were chosen knowing earlier entries consume their functions, so
	// filtering is sound (dropping entries never invalidates the rest)
	// but reordering is not.
	Merges []PlannedMerge `json:"merges,omitempty"`
}

// PlannedMerge is one proposed merge: F1 and F2 become thunks into a
// new function named Merged, saving Profit bytes of ModuleBytes. Merged
// is the name the merge will get if the module's name space is as it
// was at planning time; Apply re-derives it against the live module
// (collision suffixes may differ) and the Result records the actual
// name.
type PlannedMerge struct {
	F1     string `json:"f1"`
	F2     string `json:"f2"`
	Merged string `json:"merged"`
	// Family, when non-empty, marks the merge as a family flattening:
	// the named originals (in fid order) re-merge into one k-ary body
	// and their live thunks are rewritten onto it. Apply re-derives the
	// flatten from the session's family registry and verifies it still
	// matches this member list, so a family plan is only applicable on
	// the session that recorded the families.
	Family []string `json:"family,omitempty"`
	Profit int      `json:"profit"`
	// Hash1 and Hash2 are the structural hashes of F1 and F2 at
	// planning time; Apply verifies them before merging. They are
	// serialized as JSON strings: full-range uint64 values do not
	// survive float64-based JSON tooling (JavaScript, jq), and a
	// mangled hash would make Apply reject a perfectly fresh plan.
	Hash1 uint64 `json:"hash1,string"`
	Hash2 uint64 `json:"hash2,string"`
}

// PlannedFold is one proposed duplicate fold: Dup's body becomes a
// forwarder to the structurally identical Rep.
type PlannedFold struct {
	Dup    string `json:"dup"`
	Rep    string `json:"rep"`
	Profit int    `json:"profit"`
	// String-serialized for the same reason as PlannedMerge's hashes.
	DupHash uint64 `json:"dup_hash,string"`
	RepHash uint64 `json:"rep_hash,string"`
}
