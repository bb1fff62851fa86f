// Package client is the Go client for the fmerged daemon (cmd/fmerged):
// a thin, dependency-free wrapper over its /v1 HTTP surface. A Client
// is safe for concurrent use; a SessionClient addresses one named
// daemon session.
//
//	c := client.New("http://127.0.0.1:7433", "ci-worker-3")
//	sc, _ := c.CreateSession(ctx, client.CreateSession{
//	    Name: "libfoo", Module: irText, Threshold: 2,
//	})
//	for {
//	    plan, _ := sc.Plan(ctx)
//	    if len(plan.Merges)+len(plan.Folds) == 0 {
//	        break
//	    }
//	    if _, err := sc.Apply(ctx, plan); client.IsConflict(err) {
//	        continue // someone else committed first: replan
//	    }
//	}
//
// Module deltas stream as textual IR through Update (SpliceModule
// semantics: fragments may add globals and functions or redefine
// existing bodies in place). Plan/Apply is the optimistic-concurrency
// path: Apply of a plan whose structural hashes no longer match the
// daemon's module fails with 409 Conflict (IsConflict), and the caller
// replans.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"repro/internal/serve/api"
)

// Wire types, shared with the daemon.
type (
	// CreateSession configures a new daemon session; see the field docs
	// on the api package.
	CreateSession = api.CreateSession
	// SessionInfo describes a daemon session.
	SessionInfo = api.SessionInfo
	// Plan is the serializable merge plan Plan returns and Apply
	// consumes (repro.MergePlan on the wire).
	Plan = api.Plan
	// Report summarizes a committed run.
	Report = api.Report
	// ServerStats is the daemon's occupancy and admission accounting.
	ServerStats = api.ServerStats
	// Health is the daemon's health summary; Degraded means at least
	// one session is quarantined.
	Health = api.Health
	// Batched is the batch-delta response.
	Batched = api.Batched
)

// StatusError is the decoded non-2xx response: the HTTP status code
// plus the daemon's error message.
type StatusError struct {
	Code    int
	Message string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("fmerged: %d %s: %s", e.Code, http.StatusText(e.Code), e.Message)
}

// IsConflict reports whether err is the daemon's 409 — a stale plan (or
// a session-name collision); the standard reaction is to replan.
func IsConflict(err error) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Code == http.StatusConflict
}

// IsThrottled reports whether err is an admission-control rejection
// (429 per-client quota or 503 server saturation); the standard
// reaction is to back off and retry.
func IsThrottled(err error) bool {
	var se *StatusError
	return errors.As(err, &se) &&
		(se.Code == http.StatusTooManyRequests || se.Code == http.StatusServiceUnavailable)
}

// Client talks to one daemon. The zero value is not usable; call New.
type Client struct {
	base string
	id   string
	hc   *http.Client
}

// New builds a Client for the daemon at base (e.g.
// "http://127.0.0.1:7433"). id becomes the X-Client-ID header the
// daemon keys its per-client quotas on; empty means the daemon falls
// back to the remote address.
func New(base, id string) *Client {
	return &Client{base: base, id: id, hc: &http.Client{}}
}

// WithHTTPClient replaces the underlying *http.Client (timeouts,
// transports); it returns c for chaining.
func (c *Client) WithHTTPClient(hc *http.Client) *Client {
	c.hc = hc
	return c
}

func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.id != "" {
		req.Header.Set("X-Client-ID", c.id)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var e api.Error
		msg := string(data)
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			msg = e.Error
		}
		return &StatusError{Code: resp.StatusCode, Message: msg}
	}
	if out == nil {
		return nil
	}
	if raw, ok := out.(*[]byte); ok {
		*raw = data
		return nil
	}
	return json.Unmarshal(data, out)
}

// Healthz checks daemon liveness.
func (c *Client) Healthz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/v1/healthz", nil, nil)
}

// Health fetches the daemon's health summary: OK when no session is
// quarantined, Degraded (with the count) otherwise.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var h Health
	err := c.do(ctx, http.MethodGet, "/v1/healthz", nil, &h)
	return h, err
}

// Stats fetches the daemon's live stats.
func (c *Client) Stats(ctx context.Context) (ServerStats, error) {
	var st ServerStats
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}

// CreateSession opens a named session on the daemon. With a non-empty
// Module the daemon parses and indexes it; with an empty Module the
// daemon restores the module persisted under this name by an earlier
// Snapshot — the warm-restart path (Info.Warm reports whether the
// snapshot was accepted and its outcome memo restored; the first
// Optimize's OutcomeHits counts the trials it spared).
func (c *Client) CreateSession(ctx context.Context, req CreateSession) (*SessionClient, error) {
	var info SessionInfo
	if err := c.do(ctx, http.MethodPost, "/v1/sessions", req, &info); err != nil {
		return nil, err
	}
	return &SessionClient{c: c, name: req.Name, info: info}, nil
}

// Session addresses an existing daemon session by name (it does not
// verify existence; the first call will).
func (c *Client) Session(name string) *SessionClient {
	return &SessionClient{c: c, name: name}
}

// SessionClient addresses one named daemon session.
type SessionClient struct {
	c    *Client
	name string
	info SessionInfo
}

// CreateInfo returns the SessionInfo from creation time (zero for
// clients built with Session); Info fetches the live one.
func (sc *SessionClient) CreateInfo() SessionInfo { return sc.info }

func (sc *SessionClient) path(suffix string) string {
	return "/v1/sessions/" + url.PathEscape(sc.name) + suffix
}

// Info fetches the live session state.
func (sc *SessionClient) Info(ctx context.Context) (SessionInfo, error) {
	var info SessionInfo
	err := sc.c.do(ctx, http.MethodGet, sc.path(""), nil, &info)
	return info, err
}

// Update splices a textual-IR fragment into the session's module and
// re-indexes the functions it defines, returning their names.
func (sc *SessionClient) Update(ctx context.Context, fragment string) ([]string, error) {
	var out api.Updated
	err := sc.c.do(ctx, http.MethodPost, sc.path("/update"), api.Update{Fragment: fragment}, &out)
	return out.Funcs, err
}

// Remove drops the named functions from the session's candidate set.
func (sc *SessionClient) Remove(ctx context.Context, names ...string) error {
	return sc.c.do(ctx, http.MethodPost, sc.path("/remove"), api.Remove{Names: names}, nil)
}

// Batch ships one coherent delta — a textual-IR fragment to splice
// plus a set of removals — re-indexed daemon-side in a single pass;
// the bulk path when many object deltas land at once. A function both
// defined by the fragment and named in remove fails with 400.
func (sc *SessionClient) Batch(ctx context.Context, fragment string, remove []string) (Batched, error) {
	var out Batched
	err := sc.c.do(ctx, http.MethodPost, sc.path("/batch"), api.Batch{Fragment: fragment, Remove: remove}, &out)
	return out, err
}

// Plan asks the daemon for a merge plan without touching the module.
func (sc *SessionClient) Plan(ctx context.Context) (*Plan, error) {
	var plan Plan
	if err := sc.c.do(ctx, http.MethodPost, sc.path("/plan"), nil, &plan); err != nil {
		return nil, err
	}
	return &plan, nil
}

// Apply commits a plan. A plan invalidated by an interleaved commit
// fails with 409 (IsConflict); replan and retry.
func (sc *SessionClient) Apply(ctx context.Context, plan *Plan) (Report, error) {
	var rep Report
	err := sc.c.do(ctx, http.MethodPost, sc.path("/apply"), plan, &rep)
	return rep, err
}

// Optimize runs plan-and-commit in one daemon-side call.
func (sc *SessionClient) Optimize(ctx context.Context) (Report, error) {
	var rep Report
	err := sc.c.do(ctx, http.MethodPost, sc.path("/optimize"), nil, &rep)
	return rep, err
}

// Module fetches the session's current module as textual IR.
func (sc *SessionClient) Module(ctx context.Context) (string, error) {
	var raw []byte
	err := sc.c.do(ctx, http.MethodGet, sc.path("/module"), nil, &raw)
	return string(raw), err
}

// Snapshot persists the session's module text and outcome-memo snapshot
// under the daemon's snapshot directory, enabling a later warm restart.
func (sc *SessionClient) Snapshot(ctx context.Context) error {
	return sc.c.do(ctx, http.MethodPost, sc.path("/snapshot"), nil, nil)
}

// Close deletes the session on the daemon. Persisted snapshot files
// survive (they are the warm-restart path).
func (sc *SessionClient) Close(ctx context.Context) error {
	return sc.c.do(ctx, http.MethodDelete, sc.path(""), nil, nil)
}
