package main

import (
	"cmp"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/param"
)

// tracer keeps spans in memory and writes them out when the run ends.
// Spans are recorded from the benchmark's own files, around the calls it
// makes into each layer. A nil tracer records nothing, which is how the
// untraced runs measure the end-to-end metrics; a traced run switches its
// tracer off for the untraced half of each round pair.
type tracer struct {
	t0    time.Time
	on    atomic.Bool
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

// span is one timed call into a layer. Parent is the span that caused it
// (0 for a root); times are nanoseconds since the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id and the function that closes it.
func (t *tracer) begin(name string, parent int64) (int64, func()) {
	if !t.recording() {
		return 0, func() {}
	}
	id := t.next.Add(1)
	start := time.Since(t.t0).Nanoseconds()
	return id, func() {
		end := time.Since(t.t0).Nanoseconds()
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
		t.mu.Unlock()
	}
}

func (t *tracer) recording() bool { return t != nil && t.on.Load() }

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// named returns the durations in seconds of every span with the name.
func (t *tracer) named(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// spanSelf is one span name's aggregate: how many spans, their summed
// duration, and their summed self time.
type spanSelf struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// selfTimes derives each span's self time, its duration minus the part of
// its interval that its child spans cover, and sums both by span name.
func (t *tracer) selfTimes() []spanSelf {
	t.mu.Lock()
	spans := slices.Clone(t.spans)
	t.mu.Unlock()
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	agg := map[string]*spanSelf{}
	for _, s := range spans {
		a := agg[s.Name]
		if a == nil {
			a = &spanSelf{Name: s.Name}
			agg[s.Name] = a
		}
		d := s.End - s.Start
		a.Count++
		a.TotalS += float64(d) / 1e9
		a.SelfS += float64(d-covered(s.Start, s.End, children[s.ID])) / 1e9
	}
	out := make([]spanSelf, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	slices.SortFunc(out, func(a, b spanSelf) int { return cmp.Compare(a.Name, b.Name) })
	return out
}

// covered returns how much of [lo, hi) the union of the intervals covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	ivs = slices.Clone(ivs)
	slices.SortFunc(ivs, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total, end int64 = 0, lo
	for _, iv := range ivs {
		s, e := max(iv[0], end), min(iv[1], hi)
		if e > s {
			total += e - s
			end = e
		}
	}
	return total
}

// write stores every span and the self-time table as one JSON document.
func (t *tracer) write(path string, self []spanSelf) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	doc := struct {
		Spans []span     `json:"spans"`
		Self  []spanSelf `json:"self"`
	}{t.spans, self}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedEvaluator times every call into an evaluator. Evaluators take no
// context, so the parent is whatever batch span the owner last opened.
type tracedEvaluator struct {
	t      *tracer
	name   string
	inner  core.Evaluator
	parent *atomic.Int64
}

func (e tracedEvaluator) Evaluate(cfg param.Config) []float64 {
	var parent int64
	if e.parent != nil {
		parent = e.parent.Load()
	}
	_, end := e.t.begin(e.name, parent)
	defer end()
	return e.inner.Evaluate(cfg)
}

// tracedBackend times core.Backend.EvaluateBatch, publishes its span id
// for the evaluator calls the batch makes, and notes what was measured.
type tracedBackend struct {
	t        *tracer
	inner    core.Backend
	parent   int64
	cur      *atomic.Int64
	measured *indexSet
}

func (b tracedBackend) EvaluateBatch(ctx context.Context, cfgs []param.Config) ([][]float64, error) {
	id, end := b.t.begin("core.backend", b.parent)
	b.cur.Store(id)
	defer end()
	objs, err := b.inner.EvaluateBatch(ctx, cfgs)
	b.measured.add(cfgs)
	return objs, err
}

// tracedRecorder times core.BatchRecorder.RecordBatch, the journal append.
type tracedRecorder struct {
	t      *tracer
	inner  core.BatchRecorder
	parent int64
}

func (r tracedRecorder) RecordBatch(b core.RecordedBatch) error {
	_, end := r.t.begin("journal.append", r.parent)
	defer end()
	return r.inner.RecordBatch(b)
}

// tracedSelector times the batch selection of each active-learning round.
type tracedSelector struct {
	t      *tracer
	inner  core.Selector
	parent int64
}

func (s tracedSelector) Select(sel core.Selection) []int64 {
	_, end := s.t.begin("core.select", s.parent)
	defer end()
	return s.inner.Select(sel)
}

// spanHeader carries the client span id to a traced server handler, so a
// server-side span can name its cause.
const spanHeader = "X-Perfbench-Span"

// tracedTransport times every HTTP exchange from the request until the
// response body is closed, as a span named after the transport and the
// method ("worker.POST"), and counts the bytes each way.
type tracedTransport struct {
	t     *tracer
	name  string
	inner http.RoundTripper

	reqBytes, respBytes atomic.Int64
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !tt.t.recording() {
		return tt.inner.RoundTrip(req)
	}
	id, end := tt.t.begin(tt.name+"."+req.Method, 0)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	if req.ContentLength > 0 {
		tt.reqBytes.Add(req.ContentLength)
	}
	resp, err := tt.inner.RoundTrip(req)
	if err != nil {
		end()
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &tt.respBytes, end: end}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n    *atomic.Int64
	once sync.Once
	end  func()
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// tracedHandler times a server's handling of each request, as a child of
// the client span named in the request header.
func tracedHandler(t *tracer, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		_, end := t.begin(name, parent)
		defer end()
		h.ServeHTTP(w, r)
	})
}
