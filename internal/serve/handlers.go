package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"

	repro "repro"
	"repro/internal/serve/api"
	"repro/internal/wal"
)

// Handler mounts the daemon's /v1 surface. Every session operation
// passes through admission control (global 503 gate, per-client 429
// gate) before it executes; reads and writes on one session serialize
// on that session's mutex, while distinct sessions proceed in parallel.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		st := s.Stats()
		writeJSON(w, http.StatusOK, api.Health{
			OK:          st.Quarantined == 0,
			Degraded:    st.Quarantined > 0,
			Quarantined: st.Quarantined,
		})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("POST /v1/sessions", s.admitted(s.handleCreate))
	mux.HandleFunc("GET /v1/sessions/{name}", s.admitted(s.handleInfo))
	mux.HandleFunc("DELETE /v1/sessions/{name}", s.admitted(s.handleDelete))
	mux.HandleFunc("POST /v1/sessions/{name}/update", s.admitted(s.handleUpdate))
	mux.HandleFunc("POST /v1/sessions/{name}/remove", s.admitted(s.handleRemove))
	mux.HandleFunc("POST /v1/sessions/{name}/batch", s.admitted(s.handleBatch))
	mux.HandleFunc("POST /v1/sessions/{name}/plan", s.admitted(s.handlePlan))
	mux.HandleFunc("POST /v1/sessions/{name}/apply", s.admitted(s.handleApply))
	mux.HandleFunc("POST /v1/sessions/{name}/optimize", s.admitted(s.handleOptimize))
	mux.HandleFunc("GET /v1/sessions/{name}/module", s.admitted(s.handleModule))
	mux.HandleFunc("POST /v1/sessions/{name}/snapshot", s.admitted(s.handleSnapshot))
	return mux
}

// clientID identifies the caller for per-client quotas: the X-Client-ID
// header when present, else the remote host.
func clientID(r *http.Request) string {
	if id := strings.TrimSpace(r.Header.Get("X-Client-ID")); id != "" {
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// admitted wraps a handler with the two in-flight gates and the body
// cap. The global gate rejects with 503 (the server is saturated —
// retry against less load); the per-client gate with 429 (this caller
// is saturating its own budget).
func (s *Server) admitted(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if n := s.inflight.Add(1); n > int64(s.cfg.MaxInflight) {
			s.inflight.Add(-1)
			s.rejected503.Add(1)
			writeErr(w, http.StatusServiceUnavailable, fmt.Errorf("server at capacity (%d in flight)", s.cfg.MaxInflight))
			return
		}
		defer s.inflight.Add(-1)

		id := clientID(r)
		s.mu.Lock()
		cs := s.clients[id]
		if cs == nil {
			cs = &clientState{}
			s.clients[id] = cs
		}
		if cs.inflight >= s.cfg.MaxClientInflight {
			s.mu.Unlock()
			s.rejected429.Add(1)
			writeErr(w, http.StatusTooManyRequests, fmt.Errorf("client %q at its in-flight cap (%d)", id, s.cfg.MaxClientInflight))
			return
		}
		cs.inflight++
		s.mu.Unlock()
		defer func() {
			s.mu.Lock()
			cs.inflight--
			s.mu.Unlock()
		}()

		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		s.ops.Add(1)
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, api.Error{Error: err.Error()})
}

// writeEngineErr maps engine sentinels onto the HTTP vocabulary: a
// stale plan is a conflict the client resolves by replanning (409), an
// unknown function is the caller's mistake (400).
func (s *Server) writeEngineErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, repro.ErrStalePlan):
		s.conflicts409.Add(1)
		writeErr(w, http.StatusConflict, err)
	case errors.Is(err, repro.ErrUnknownFunction):
		writeErr(w, http.StatusBadRequest, err)
	case errors.Is(err, repro.ErrConflictingDelta):
		writeErr(w, http.StatusBadRequest, err)
	default:
		writeErr(w, http.StatusInternalServerError, err)
	}
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErr(w, http.StatusRequestEntityTooLarge, err)
		} else {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		}
		return false
	}
	return true
}

// lookup resolves a live session by path name.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *served {
	name := r.PathValue("name")
	s.mu.Lock()
	sv := s.sessions[name]
	s.mu.Unlock()
	if sv == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no session %q", name))
		return nil
	}
	return sv
}

// locked resolves the session, serializes on its mutex, bounces
// quarantined sessions with 503, and converts a panic inside fn into a
// 500 plus quarantine — one poisoned session must not take the daemon
// down, and must not keep serving from suspect state. The recover runs
// while the session mutex is still held, so the quarantine flag is set
// before any other request can enter.
func (s *Server) locked(w http.ResponseWriter, r *http.Request, fn func(sv *served)) {
	sv := s.lookup(w, r)
	if sv == nil {
		return
	}
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if sv.quarantined.Load() {
		writeErr(w, http.StatusServiceUnavailable,
			fmt.Errorf("session %q is quarantined; DELETE and recreate it to recover the last durable state", sv.name))
		return
	}
	defer func() {
		if p := recover(); p != nil {
			s.panics.Add(1)
			sv.quarantined.Store(true)
			writeErr(w, http.StatusInternalServerError,
				fmt.Errorf("internal panic serving session %q (session quarantined): %v", sv.name, p))
		}
	}()
	fn(sv)
}

// buildOptimizer maps the wire options onto the Optimizer.
func buildOptimizer(req *api.CreateSession) (*repro.Optimizer, error) {
	var opts []repro.Option
	switch req.Algorithm {
	case "", "SalSSA":
		opts = append(opts, repro.WithAlgorithm(repro.SalSSA))
	case "SalSSA-NoPC":
		opts = append(opts, repro.WithAlgorithm(repro.SalSSANoPC))
	default:
		return nil, fmt.Errorf("unknown algorithm %q (want SalSSA or SalSSA-NoPC)", req.Algorithm)
	}
	switch req.Finder {
	case "", "exact", "lsh": // both names select the one finder
	default:
		return nil, fmt.Errorf("unknown finder %q (want exact or lsh)", req.Finder)
	}
	if req.Threshold > 0 {
		opts = append(opts, repro.WithThreshold(req.Threshold))
	}
	if req.MinInstrs > 0 {
		opts = append(opts, repro.WithMinInstrs(req.MinInstrs))
	}
	if req.MaxFamily > 0 {
		opts = append(opts, repro.WithMaxFamily(req.MaxFamily))
	}
	// Accepted and ignored, like WithParallelism itself, which still
	// rejects a negative value. req.DupFold is ignored too: every
	// session folds.
	opts = append(opts, repro.WithParallelism(req.Parallelism))
	return repro.New(opts...)
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req api.CreateSession
	if !readJSON(w, r, &req) {
		return
	}
	if !sessionName.MatchString(req.Name) {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("invalid session name %q", req.Name))
		return
	}
	opt, err := buildOptimizer(&req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}

	// Resolve the module: inline text, or the persisted copy (the
	// warm-restart / crash-recovery path for a restarted daemon).
	// diskText stays nil for inline modules; for restores it carries
	// the persisted bytes the journal's base hash is checked against.
	src := req.Module
	var diskText []byte
	if src == "" {
		if s.cfg.SnapshotDir == "" {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("no module given and no snapshot directory configured"))
			return
		}
		data, err := s.fs.ReadFile(s.modulePath(req.Name))
		if err != nil {
			writeErr(w, http.StatusNotFound, fmt.Errorf("no module given and no persisted module for %q", req.Name))
			return
		}
		diskText = data
		src = string(data)
	}
	m, err := repro.ParseModule(src)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("parsing module: %w", err))
		return
	}
	funcs := len(m.Defined())

	id := clientID(r)
	s.mu.Lock()
	if s.sessions[req.Name] != nil {
		s.mu.Unlock()
		writeErr(w, http.StatusConflict, fmt.Errorf("session %q already exists", req.Name))
		return
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		s.rejected429.Add(1)
		writeErr(w, http.StatusTooManyRequests, fmt.Errorf("session cap reached (%d)", s.cfg.MaxSessions))
		return
	}
	cs := s.clients[id]
	if cs == nil {
		cs = &clientState{}
		s.clients[id] = cs
	}
	if cs.funcs+funcs > s.cfg.MaxClientFuncs {
		s.mu.Unlock()
		s.rejected429.Add(1)
		writeErr(w, http.StatusTooManyRequests,
			fmt.Errorf("function quota exceeded: %d indexed + %d requested > %d", cs.funcs, funcs, s.cfg.MaxClientFuncs))
		return
	}
	// Reserve the name and quota before the (slow) index build so a
	// concurrent create of the same name fails fast; the placeholder is
	// replaced or deleted below.
	sv := &served{name: req.Name, owner: id}
	sv.mu.Lock()
	s.sessions[req.Name] = sv
	cs.funcs += funcs
	s.mu.Unlock()

	// abort unwinds the reservation when the create cannot complete.
	abort := func(status int, err error) {
		closeJournalOnly(sv)
		sv.mu.Unlock()
		s.mu.Lock()
		delete(s.sessions, req.Name)
		cs.funcs -= funcs
		s.mu.Unlock()
		writeErr(w, status, err)
	}
	// A panic between the reservation and the response (index build,
	// journal attach) must not leak a permanently locked placeholder
	// session under this name.
	committed := false
	defer func() {
		if p := recover(); p != nil {
			if committed {
				panic(p)
			}
			s.panics.Add(1)
			abort(http.StatusInternalServerError,
				fmt.Errorf("internal panic creating session %q: %v", req.Name, p))
		}
	}()

	// Warm restart when a sealed snapshot is on disk and validates; any
	// failure falls back to a cold open.
	var sess *repro.Session
	warm := false
	if s.cfg.SnapshotDir != "" {
		if data, err := s.fs.ReadFile(s.snapshotPath(req.Name)); err == nil {
			var snap repro.SessionSnapshot
			if json.Unmarshal(data, &snap) == nil {
				if ws, err := opt.OpenWithSnapshot(r.Context(), m, &snap); err == nil {
					sess, warm = ws, true
					s.warmRestores.Add(1)
				}
			}
		}
	}
	if sess == nil {
		sess, err = opt.Open(r.Context(), m)
		if err != nil {
			abort(http.StatusBadRequest, fmt.Errorf("opening session: %w", err))
			return
		}
	}
	sv.m, sv.sess, sv.warm, sv.funcs = m, sess, warm, funcs

	// Durability: persist a fresh module / replay the journal tail. A
	// session that cannot journal must not be served — the client asked
	// for crash-safety.
	if err := s.attachJournal(r.Context(), sv, diskText); err != nil {
		sess.Close()
		abort(http.StatusInternalServerError, fmt.Errorf("attaching journal: %w", err))
		return
	}
	// Journal replay may have grown or shrunk the module; settle the
	// quota on what actually survives.
	if grown := len(sv.m.Defined()) - funcs; grown != 0 {
		s.mu.Lock()
		cs.funcs += grown
		s.mu.Unlock()
		sv.funcs += grown
	}
	committed = true
	sv.mu.Unlock()
	writeJSON(w, http.StatusCreated, s.info(sv))
}

// closeJournalOnly releases a journal handle during create-abort,
// where the engine either never opened or is closed by the caller.
func closeJournalOnly(sv *served) {
	if sv.j != nil {
		sv.j.Close()
		sv.j = nil
	}
}

// info snapshots a SessionInfo; caller need not hold sv.mu for the
// scalar fields but Built goes through the engine.
func (s *Server) info(sv *served) api.SessionInfo {
	built := 0
	if st, err := sv.sess.SearchStats(); err == nil {
		built = st.Built
	}
	return api.SessionInfo{
		Name:        sv.name,
		Funcs:       sv.funcs,
		Warm:        sv.warm,
		Built:       built,
		Replayed:    sv.replayed,
		Quarantined: sv.quarantined.Load(),
	}
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	// Info is answerable for quarantined sessions too — it is how an
	// operator sees the quarantine — so it does not use locked.
	sv := s.lookup(w, r)
	if sv == nil {
		return
	}
	sv.mu.Lock()
	defer sv.mu.Unlock()
	writeJSON(w, http.StatusOK, s.info(sv))
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	sv := s.sessions[name]
	if sv != nil {
		delete(s.sessions, name)
		if cs := s.clients[sv.owner]; cs != nil {
			cs.funcs -= sv.funcs
		}
	}
	s.mu.Unlock()
	if sv == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no session %q", name))
		return
	}
	// Deleting is also how an operator clears a quarantine, so this
	// path must work on poisoned sessions: closeSession absorbs panics.
	sv.mu.Lock()
	err := closeSession(sv)
	sv.mu.Unlock()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var req api.Update
	if !readJSON(w, r, &req) {
		return
	}
	s.locked(w, r, func(sv *served) {
		if names, ok := s.delta(w, r, sv, wal.Record{Op: wal.OpUpdate, Fragment: req.Fragment}); ok {
			writeJSON(w, http.StatusOK, api.Updated{Funcs: names})
		}
	})
}

func (s *Server) handleRemove(w http.ResponseWriter, r *http.Request) {
	var req api.Remove
	if !readJSON(w, r, &req) {
		return
	}
	s.locked(w, r, func(sv *served) {
		if _, ok := s.delta(w, r, sv, wal.Record{Op: wal.OpRemove, Names: req.Names}); ok {
			writeJSON(w, http.StatusOK, map[string]int{"removed": len(req.Names)})
		}
	})
}

// handleBatch is update and remove as one journaled delta: the
// fragment is parsed and staged, the whole batch is validated and
// marked by a single UpdateBatch pass — one finder rebuild window, one
// invalidation sweep — and only then grafted, and one WAL record covers
// it, so recovery replays it as one pass too.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req api.Batch
	if !readJSON(w, r, &req) {
		return
	}
	s.locked(w, r, func(sv *served) {
		if names, ok := s.delta(w, r, sv, wal.Record{Op: wal.OpBatch, Fragment: req.Fragment, Names: req.Remove}); ok {
			writeJSON(w, http.StatusOK, api.Batched{Funcs: names, Removed: len(req.Remove)})
		}
	})
}

// delta is update, remove and batch, given as the record it journals:
// the function-quota precheck, the splice and the session's marks as
// one step (applyDelta), the growth accounting (update and batch), then
// the journal record. On failure it answers the request itself. It
// returns the names the fragment defined and whether the delta took.
func (s *Server) delta(w http.ResponseWriter, r *http.Request, sv *served, rec wal.Record) ([]string, bool) {
	grows := rec.Op != wal.OpRemove
	var cs *clientState
	before := 0
	if grows {
		// Quota precheck on an upper bound (every "define" in the fragment
		// could be a new function) so a rejected delta touches nothing;
		// the actual growth, accounted after the splice, is never larger.
		bound := strings.Count(rec.Fragment, "define ")
		s.mu.Lock()
		cs = s.clients[sv.owner]
		if cs != nil && cs.funcs+bound > s.cfg.MaxClientFuncs {
			s.mu.Unlock()
			s.rejected429.Add(1)
			writeErr(w, http.StatusTooManyRequests,
				fmt.Errorf("function quota exceeded: %d indexed + up to %d defined > %d", cs.funcs, bound, s.cfg.MaxClientFuncs))
			return nil, false
		}
		s.mu.Unlock()
		before = len(sv.m.Defined())
	}
	names, refused, err := applyDelta(r.Context(), sv, rec)
	switch {
	case refused != nil:
		s.writeEngineErr(w, refused)
		return nil, false
	case err != nil:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("splicing fragment: %w", err))
		return nil, false
	}
	if grows {
		if grown := len(sv.m.Defined()) - before; grown > 0 {
			s.mu.Lock()
			if cs != nil {
				cs.funcs += grown
			}
			s.mu.Unlock()
			sv.funcs += grown
		}
	}
	if err := s.journal(sv, rec); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return nil, false
	}
	return names, true
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	s.locked(w, r, func(sv *served) {
		plan, err := sv.sess.Plan(r.Context())
		if err != nil {
			s.writeEngineErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, plan)
	})
}

func (s *Server) handleApply(w http.ResponseWriter, r *http.Request) {
	var plan api.Plan
	if !readJSON(w, r, &plan) {
		return
	}
	s.locked(w, r, func(sv *served) {
		rep, err := sv.sess.Apply(r.Context(), &plan)
		if err != nil {
			if rep == nil || len(rep.Folds)+len(rep.Merges) == 0 {
				s.writeEngineErr(w, err)
				return
			}
			// A cancellation or trial error keeps a committed prefix;
			// journal it, or the live module runs ahead of the journal.
			plan.Folds, plan.Merges = plan.Folds[:len(rep.Folds)], plan.Merges[:len(rep.Merges)]
		}
		data, jerr := json.Marshal(&plan)
		if jerr == nil {
			jerr = s.journal(sv, wal.Record{Op: wal.OpApply, Plan: data})
		}
		if jerr != nil {
			writeErr(w, http.StatusInternalServerError, jerr)
			return
		}
		if err != nil {
			s.writeEngineErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, wireReport(rep))
	})
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	s.locked(w, r, func(sv *served) {
		rep, err := sv.sess.Optimize(r.Context())
		if err != nil {
			s.writeEngineErr(w, err)
			return
		}
		if err := s.journal(sv, wal.Record{Op: wal.OpOptimize}); err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, wireReport(rep))
	})
}

func wireReport(rep *repro.Report) api.Report {
	return api.Report{
		Merges:        len(rep.Merges),
		Folds:         len(rep.Folds),
		BaselineBytes: rep.BaselineBytes,
		FinalBytes:    rep.FinalBytes,
		OutcomeHits:   rep.OutcomeHits,
	}
}

func (s *Server) handleModule(w http.ResponseWriter, r *http.Request) {
	s.locked(w, r, func(sv *served) {
		text := repro.FormatModule(sv.m)
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(text))
	})
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	s.locked(w, r, func(sv *served) {
		if err := s.persist(sv); err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{
			"module":   s.modulePath(sv.name),
			"snapshot": s.snapshotPath(sv.name),
		})
	})
}
