// Package api defines the wire format of the fmerged daemon: the JSON
// request/response bodies exchanged over its /v1 HTTP surface. Both the
// server (internal/serve) and the Go client (repro/client) build on
// these types, so the contract lives in exactly one place. Module
// payloads and deltas travel as the textual IR dialect
// (ParseModule/SpliceModule); plans travel as repro.MergePlan's own
// JSON encoding.
package api

import repro "repro"

// CreateSession is the body of POST /v1/sessions. Module is the initial
// module in textual IR; when empty the daemon restores the module (and
// its outcome-memo snapshot) persisted under the session's name by an earlier
// Snapshot call — the warm-restart path. Option fields mirror the
// Optimizer options; zero values mean the daemon defaults (SalSSA,
// threshold 1, families of up to 4 members); every session folds.
type CreateSession struct {
	Name      string `json:"name"`
	Module    string `json:"module,omitempty"`
	Algorithm string `json:"algorithm,omitempty"` // "SalSSA" | "SalSSA-NoPC"
	Threshold int    `json:"threshold,omitempty"`
	// Finder is "", "exact" or "lsh", the names clients written against
	// the two-finder daemon send; any other value is rejected. All three
	// select the one candidate finder, so the field changes nothing.
	Finder string `json:"finder,omitempty"`
	// DupFold is accepted and ignored: every session folds duplicates,
	// and older clients still send the field.
	DupFold bool `json:"dup_fold,omitempty"`
	// Canon is accepted and ignored: canonical-view indexing has left
	// the engine, and clients that recreate a session by name still
	// send the field. Every session indexes the original bodies.
	Canon     bool `json:"canon,omitempty"`
	MaxFamily int  `json:"max_family,omitempty"`
	MinInstrs int  `json:"min_instrs,omitempty"`
	// Parallelism is accepted and ignored, like the removed "shards" and
	// "commit_parallelism" fields; a negative value is still rejected.
	// Every session runs the paper's serial greedy loop, and the daemon
	// runs its sessions side by side.
	Parallelism int `json:"parallelism,omitempty"`
}

// SessionInfo describes one served session; returned by session
// creation and GET /v1/sessions/{name}.
type SessionInfo struct {
	Name  string `json:"name"`
	Funcs int    `json:"funcs"` // defined functions in the module
	// Warm reports that the session was opened from a persisted
	// snapshot (its outcome memo restored); Built is the finder's
	// fingerprint-computation count since open, which counts every
	// candidate after a warm open as after a cold one.
	Warm  bool `json:"warm"`
	Built int  `json:"built"`
	// Replayed counts the journal records replayed when the session was
	// recovered (0 for a fresh or cleanly-snapshotted session).
	Replayed int `json:"replayed,omitempty"`
	// Quarantined reports that the session has been fenced off after a
	// panic or a journal-write failure: every operation except DELETE
	// and info returns 503 until the session is deleted and recreated.
	Quarantined bool `json:"quarantined,omitempty"`
}

// Update is the body of POST /v1/sessions/{name}/update: a textual-IR
// fragment spliced into the module (SpliceModule semantics — functions
// may be added or redefined in place, globals added). The functions the
// fragment defines are re-indexed.
type Update struct {
	Fragment string `json:"fragment"`
}

// Updated is the update response: the functions the fragment defined,
// in definition order.
type Updated struct {
	Funcs []string `json:"funcs"`
}

// Remove is the body of POST /v1/sessions/{name}/remove: the named
// functions are dropped from the candidate set.
type Remove struct {
	Names []string `json:"names"`
}

// Batch is the body of POST /v1/sessions/{name}/batch: one coherent
// delta combining an optional textual-IR fragment (Update splice
// semantics) with a set of removals, validated together and re-indexed
// in a single pass — the bulk path for build systems shipping many
// object deltas at once. A function named by the fragment and the
// removal list in the same batch is rejected (400): inside one batch
// there is no order to disambiguate the two edits.
type Batch struct {
	Fragment string   `json:"fragment,omitempty"`
	Remove   []string `json:"remove,omitempty"`
}

// Batched is the batch response: the functions the fragment defined (in
// definition order) and the number of removals applied.
type Batched struct {
	Funcs   []string `json:"funcs"`
	Removed int      `json:"removed"`
}

// Report summarizes a committed run (apply or optimize) on the wire —
// the subset of repro.Report a remote caller acts on.
type Report struct {
	Merges        int `json:"merges"`
	Folds         int `json:"folds"`
	BaselineBytes int `json:"baseline_bytes"`
	FinalBytes    int `json:"final_bytes"`
	OutcomeHits   int `json:"outcome_hits"`
}

// Plan aliases the engine's serializable merge plan; it crosses the
// wire in its native JSON encoding so a plan from /plan feeds /apply
// (or an offline audit) unchanged.
type Plan = repro.MergePlan

// ServerStats is the body of GET /v1/stats: live occupancy and
// cumulative admission-control accounting.
type ServerStats struct {
	Sessions     int   `json:"sessions"`
	Quarantined  int   `json:"quarantined"` // sessions currently fenced off
	Inflight     int   `json:"inflight"`
	Ops          int64 `json:"ops"`
	Rejected503  int64 `json:"rejected_503"`
	Rejected429  int64 `json:"rejected_429"`
	Conflicts409 int64 `json:"conflicts_409"`
	WarmRestores int64 `json:"warm_restores"`
	Panics       int64 `json:"panics"` // request panics recovered (each quarantines a session)
}

// Health is the body of GET /v1/healthz. Degraded means at least one
// session is quarantined: the daemon still serves, but an operator
// should intervene (DELETE and recreate the quarantined sessions).
type Health struct {
	OK          bool `json:"ok"`
	Degraded    bool `json:"degraded,omitempty"`
	Quarantined int  `json:"quarantined,omitempty"`
}

// Error is the JSON error envelope every non-2xx response carries.
type Error struct {
	Error string `json:"error"`
}
