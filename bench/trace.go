package main

import (
	"runtime"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the call: nothing inside the program is instrumented. Times are
// nanoseconds since the tracer started; Parent is the span that was
// open when this one began (0 for none); Run numbers the pass (one
// pipeline execution or one layer replay) the span belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Ops is the number of operations the span covers: 1, or the batch
	// size where a single call is too short to time on its own.
	Ops int `json:"ops"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, which is how end-to-end runs execute the same code
// with tracing off.
type tracer struct {
	t0    time.Time
	run   int // the pass now recording; see span.Run
	spans []span
	open  []int // ids of the spans still open, innermost last
	// liveHeap is the largest live heap sampleLiveHeap saw.
	liveHeap uint64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span covering ops operations and returns its id.
func (t *tracer) begin(name string, ops int) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, id)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Ops: ops})
	t.spans[id-1].Start = int64(time.Since(t.t0))
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic("bench: spans closed out of order")
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[id-1].End = now
}

// spanTotal is the roll-up of every span of one name.
type spanTotal struct {
	Spans int     `json:"spans"`
	Ops   int     `json:"ops"`
	Secs  float64 `json:"secs"`
	// SelfSecs is Secs minus the time covered by child spans.
	SelfSecs float64 `json:"self_secs"`
}

// spanTotals maps a span name to its roll-up.
type spanTotals map[string]*spanTotal

// secs is the total time of the spans of one name, 0 if there are none.
func (t spanTotals) secs(name string) float64 {
	if st := t[name]; st != nil {
		return st.Secs
	}
	return 0
}

// each is the mean seconds per operation of the spans of one name.
func (t spanTotals) each(name string) float64 {
	if st := t[name]; st != nil && st.Ops > 0 {
		return st.Secs / float64(st.Ops)
	}
	return 0
}

// totals rolls the spans of one pass up by name.
func (t *tracer) totals(run int) spanTotals {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.End - s.Start
	}
	out := spanTotals{}
	for _, s := range t.spans {
		if s.Run != run {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &spanTotal{}
			out[s.Name] = st
		}
		st.Spans++
		st.Ops += s.Ops
		st.Secs += float64(s.End-s.Start) / 1e9
		st.SelfSecs += float64(s.End-s.Start-child[s.ID]) / 1e9
	}
	return out
}

// sampleLiveHeap forces a collection and records the live heap, keeping
// the largest seen. The workloads call it where their session (or, for
// one-shot runs, their module) is still reachable. Traced runs only:
// its span lets the pass time be read without it.
func (t *tracer) sampleLiveHeap() {
	if t == nil {
		return
	}
	id := t.begin("runtime.GC", 1)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.liveHeap = max(t.liveHeap, ms.HeapAlloc)
	t.end(id)
}
