package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/param"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/worker"
)

// daemonRun is the budget of every daemon-tenants run: small enough that
// the evaluations are nearly free and admission, scheduling, coalescing,
// the worker wire and the journal dominate.
var daemonRun = struct{ random, iterations, batch int }{40, 3, 20}

// daemonSeeds is the size of the seed set: runs repeat, so later ones read
// the shared memo-cache. The traced half of a traced run's round pairs
// draws from a disjoint set, so it goes from a cold to a warm cache the
// way the untraced half does instead of replaying its measurements.
const daemonSeeds = 4

// tenants are the two closed-loop clients; each runs every problem once
// per round, and both run the same problem at the same time so their
// batches can merge in the coalescer.
var tenants = []string{"tenant-a", "tenant-b"}

// maxSessions bounds the sessions the daemon retains, oldest finished
// first; a round's runs stay retained until its checks have read them.
const maxSessions = 64

type daemonProblem struct {
	p catalog.Problem
	// ideal and ref bound the hypervolume box; trueHV is the normalized
	// hypervolume of the whole feasible space, which no front can exceed.
	ideal, ref []float64
	trueHV     float64
	feasible   int // feasible configurations, the size of every prediction pool
}

type daemonTenants struct {
	tr       *tracer
	seed     int64
	dir      string
	problems []*daemonProblem
	stack    *daemonStack

	mu   sync.Mutex
	refs map[string]*core.StoredFront // in-process reference front by problem/seed
}

func newDaemonTenants(seed int64, dir string, tr *tracer) workload {
	return &daemonTenants{tr: tr, seed: seed, dir: dir, refs: map[string]*core.StoredFront{}}
}

// daemonStack is one embedded hypermapperd: a durable manager with the
// fair-share scheduler, two loopback workers behind a pool, and the HTTP
// client the tenants use.
type daemonStack struct {
	dataDir  string
	mgr      *server.Manager
	servers  []*http.Server
	pool     *worker.Pool
	base     string
	client   *http.Client
	poolWire *tracedTransport
}

// setup builds the problem catalog (synthetic plus the shipped specs) and
// starts the daemon stack until it answers /readyz; every set-up but the
// last is shut down again.
func (w *daemonTenants) setup() ([]float64, error) {
	const n = 21 // each set-up takes about a millisecond
	var times []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		reg := catalog.NewRegistry()
		reg.SetLogf(nil)
		if err := reg.Register(catalog.Synthetic()); err != nil {
			return nil, err
		}
		if _, err := reg.LoadDir("specs"); err != nil {
			return nil, fmt.Errorf("loading specs: %w", err)
		}
		st, err := w.start(reg.Problems(), filepath.Join(w.dir, fmt.Sprintf("data-%d", i)))
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < n-1 {
			st.stop()
			continue
		}
		w.stack = st
		w.problems = nil
		for _, p := range reg.Problems() {
			w.problems = append(w.problems, bounds(p))
		}
	}
	return times, nil
}

// bounds enumerates a problem's feasible space for its ideal and nadir
// points and the hypervolume of the whole space.
func bounds(p catalog.Problem) *daemonProblem {
	var all [][]float64
	for _, idx := range p.Space.FeasibleIndices() {
		all = append(all, p.Eval.Evaluate(p.Space.AtIndex(idx)))
	}
	dp := &daemonProblem{p: p, feasible: len(all)}
	for k := range p.Objectives {
		lo, hi := all[0][k], all[0][k]
		for _, o := range all {
			lo, hi = min(lo, o[k]), max(hi, o[k])
		}
		dp.ideal = append(dp.ideal, lo)
		dp.ref = append(dp.ref, lo+1.1*(hi-lo))
	}
	dp.trueHV = normalizedHV(all, dp.ideal, dp.ref)
	return dp
}

func (w *daemonTenants) start(problems []catalog.Problem, dataDir string) (*daemonStack, error) {
	st := &daemonStack{dataDir: dataDir, client: &http.Client{}}
	if w.tr != nil {
		st.client.Transport = &tracedTransport{t: w.tr, name: "client", inner: http.DefaultTransport}
	}
	var urls []string
	for range 2 {
		ws := worker.NewServer(1) // two workers of one evaluator each: nproc
		for _, p := range problems {
			eval := p.Eval
			if w.tr != nil {
				eval = tracedEvaluator{t: w.tr, name: "worker.eval", inner: eval}
			}
			if err := ws.Register(worker.Problem{Name: p.Name, Space: p.Space, Eval: eval, Objectives: len(p.Objectives)}); err != nil {
				return nil, err
			}
		}
		var h http.Handler = ws.Handler()
		if w.tr != nil {
			h = tracedHandler(w.tr, "worker.handle", h)
		}
		url, srv, err := serve(h)
		if err != nil {
			st.stop()
			return nil, err
		}
		st.servers = append(st.servers, srv)
		urls = append(urls, url)
	}
	popts := worker.Options{}
	if w.tr != nil {
		st.poolWire = &tracedTransport{t: w.tr, name: "worker", inner: http.DefaultTransport}
		popts.Client = &http.Client{Transport: st.poolWire}
	}
	pool, err := worker.NewPool(urls, popts)
	if err != nil {
		st.stop()
		return nil, err
	}
	st.pool = pool
	var sps []server.Problem
	for _, p := range problems {
		sps = append(sps, server.Problem{Name: p.Name, Description: p.Description, Space: p.Space, Eval: p.Eval, Objectives: p.Objectives})
	}
	st.mgr = server.NewManagerConfig(server.Config{
		// Retaining every finished run would let memory, and with it
		// peak_rss_mb, grow with however many runs a run's time admits.
		MaxSessions: maxSessions,
		DataDir:     dataDir,
		EvalPool:    pool,
		Sched:       &sched.Config{MaxRunning: len(tenants)},
	}, sps...)
	url, srv, err := serve(st.mgr.Handler())
	if err != nil {
		st.stop()
		return nil, err
	}
	st.servers = append(st.servers, srv)
	st.base = url
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := st.client.Get(st.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return st, nil
			}
		}
		if time.Now().After(deadline) {
			st.stop()
			return nil, fmt.Errorf("daemon not ready: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// serve starts an HTTP server for h on a loopback port.
func serve(h http.Handler) (string, *http.Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return "http://" + ln.Addr().String(), srv, nil
}

// stop shuts the stack down and waits for its sessions and servers.
func (st *daemonStack) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if st.mgr != nil {
		st.mgr.Shutdown(ctx)
	}
	for _, srv := range slices.Backward(st.servers) {
		srv.Shutdown(ctx)
	}
	if st.pool != nil {
		st.pool.Close()
	}
	st.client.CloseIdleConnections()
}

func (w *daemonTenants) close() {
	if w.stack != nil {
		w.stack.stop()
	}
}

// runOutcome is one daemon run as a tenant saw it.
type runOutcome struct {
	problem *daemonProblem
	req     server.RunRequest
	id      string
	latency float64
	status  server.RunStatus
	front   core.StoredFront
	failed  string // why the run counts as failed; empty when it completed
}

// round lets both tenants run every problem once, in the same order, as
// closed loops: each submits a run, waits for its terminal state on the
// event stream, fetches the front and submits the next. The round's
// operations and inputs depend only on the seed and the round number.
func (w *daemonTenants) round(r int, traced bool) (roundResult, error) {
	res := roundResult{latencies: map[string][]float64{}, hv: map[string][]float64{}}
	outcomes := make([][]runOutcome, len(tenants))
	var before server.Stats
	if traced {
		before = w.stack.mgr.Stats()
	}
	start := time.Now()
	var wg sync.WaitGroup
	for c, tenant := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			base := w.seed * 100
			if traced {
				base += 50
			}
			for k, dp := range w.problems {
				req := server.RunRequest{
					Problem:       dp.p.Name,
					Seed:          base + int64((2*r+c+k)%daemonSeeds),
					RandomSamples: daemonRun.random,
					MaxIterations: daemonRun.iterations,
					MaxBatch:      daemonRun.batch,
					Tenant:        tenant,
				}
				outcomes[c] = append(outcomes[c], w.stack.do(dp, req))
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start).Seconds()
	if traced {
		res.layer = w.daemonLayers(before, outcomes)
	}
	for _, outs := range outcomes {
		for _, o := range outs {
			res.attempted++
			if o.failed != "" {
				fmt.Fprintf(os.Stderr, "perfbench: %s run %s failed: %s\n", o.req.Problem, o.id, o.failed)
				res.failed++
				continue
			}
			res.latencies[o.req.Problem] = append(res.latencies[o.req.Problem], o.latency)
			hv, err := w.check(o)
			if err != nil {
				return res, fmt.Errorf("%s run %s (seed %d): %w", o.req.Problem, o.id, o.req.Seed, err)
			}
			res.hv[o.req.Problem] = append(res.hv[o.req.Problem], hv)
		}
	}
	return res, nil
}

// do submits one run and follows it to its terminal state. A 429, a
// transport error or a failed or cancelled state marks it failed.
func (st *daemonStack) do(dp *daemonProblem, req server.RunRequest) runOutcome {
	out := runOutcome{problem: dp, req: req}
	body, _ := json.Marshal(req)
	start := time.Now()
	resp, err := st.client.Post(st.base+"/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		out.failed = err.Error()
		return out
	}
	var admitted server.RunStatus
	err = json.NewDecoder(resp.Body).Decode(&admitted)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		out.failed = fmt.Sprintf("POST /runs: %s", resp.Status)
		return out
	}
	if err != nil {
		out.failed = fmt.Sprintf("POST /runs: %v", err)
		return out
	}
	out.id = admitted.ID
	// The event stream closes when the run reaches a terminal state.
	if err := st.get("/runs/"+out.id+"/events", nil); err != nil {
		out.failed = err.Error()
		return out
	}
	out.latency = time.Since(start).Seconds()
	if err := st.get("/runs/"+out.id, &out.status); err != nil {
		out.failed = err.Error()
		return out
	}
	if out.status.State != server.StateDone {
		out.failed = fmt.Sprintf("state %s: %s", out.status.State, out.status.Error)
		return out
	}
	if err := st.get("/runs/"+out.id+"/front", &out.front); err != nil {
		out.failed = err.Error()
	}
	return out
}

// get fetches path and decodes it into v (or drains it when v is nil).
func (st *daemonStack) get(path string, v any) error {
	resp, err := st.client.Get(st.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	if v == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// check verifies one completed run against its journal read back from
// disk, the problem's evaluator, and an in-process reference exploration
// with no workers, scheduler or cache. It returns the run's normalized
// hypervolume.
func (w *daemonTenants) check(o runOutcome) (float64, error) {
	p := o.problem.p
	rec, err := journal.Recover(filepath.Join(w.stack.dataDir, "runs", o.id, "journal.jsonl"))
	if err != nil {
		return 0, err
	}
	seen := map[int64]bool{}
	var all [][]float64
	for _, b := range rec.Batches {
		if b.Iteration == 0 && len(b.Samples) != min(o.req.RandomSamples, o.problem.feasible) {
			return 0, checkf("bootstrap journaled %d samples", len(b.Samples))
		}
		if b.Iteration > 0 && len(b.Samples) > o.req.MaxBatch {
			return 0, checkf("round %d journaled %d > max batch %d", b.Iteration, len(b.Samples), o.req.MaxBatch)
		}
		if b.Iteration > o.req.MaxIterations {
			return 0, checkf("journal has round %d past the budget", b.Iteration)
		}
		for _, s := range b.Samples {
			if seen[s.Index] {
				return 0, checkf("index %d journaled twice", s.Index)
			}
			seen[s.Index] = true
			if want := p.Eval.Evaluate(p.Space.AtIndex(s.Index)); !slices.Equal(want, s.Objs) {
				return 0, checkf("index %d journaled %v, evaluator gives %v", s.Index, s.Objs, want)
			}
			all = append(all, s.Objs)
		}
	}
	if len(all) != o.status.Samples {
		return 0, checkf("journal holds %d samples, status reports %d", len(all), o.status.Samples)
	}
	var front [][]float64
	for _, pt := range o.front.Points {
		if !slices.Equal(p.Space.AtIndex(pt.Index), param.Config(pt.Config)) {
			return 0, checkf("front config %d does not decode from its index", pt.Index)
		}
		front = append(front, pt.Objs)
	}
	if !sameVectorSet(front, nonDominated(all)) {
		return 0, checkf("front differs from the brute-force non-dominated set of the journal")
	}
	ref, err := w.reference(o.problem, o.req)
	if err != nil {
		return 0, err
	}
	if !slices.EqualFunc(ref.Points, o.front.Points, func(a, b core.StoredPoint) bool {
		return a.Index == b.Index && slices.Equal(a.Config, b.Config) && slices.Equal(a.Objs, b.Objs)
	}) {
		return 0, checkf("front differs from the in-process reference run")
	}
	hv := normalizedHV(front, o.problem.ideal, o.problem.ref)
	if hv > o.problem.trueHV*(1+1e-12) {
		return 0, checkf("hypervolume %g exceeds the whole space's %g", hv, o.problem.trueHV)
	}
	return hv, nil
}

// reference runs (once per problem and seed) the same exploration in
// process: no workers, no scheduler, no cache.
func (w *daemonTenants) reference(dp *daemonProblem, req server.RunRequest) (*core.StoredFront, error) {
	key := fmt.Sprintf("%s/%d", req.Problem, req.Seed)
	w.mu.Lock()
	defer w.mu.Unlock()
	if sf, ok := w.refs[key]; ok {
		return sf, nil
	}
	res, err := core.RunContext(context.Background(), dp.p.Space, dp.p.Eval, core.Options{
		Objectives:    len(dp.p.Objectives),
		RandomSamples: req.RandomSamples,
		MaxIterations: req.MaxIterations,
		MaxBatch:      req.MaxBatch,
		Seed:          req.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	sf := core.NewStoredFront(dp.p.Space, res, dp.p.Name, "", dp.p.Objectives)
	w.refs[key] = sf
	return sf, nil
}

// daemonLayers derives the per-layer metrics of one traced round from the
// spans, the runs' reported phases and journals, and the manager's
// scheduler and coalescer counters.
func (w *daemonTenants) daemonLayers(before server.Stats, outcomes [][]runOutcome) map[string]float64 {
	vals := map[string]float64{}
	after := w.stack.mgr.Stats()
	for _, outs := range outcomes {
		for _, o := range outs {
			if o.failed != "" {
				continue
			}
			phases := make([]core.IterationStats, len(o.status.Iterations))
			for i, ev := range o.status.Iterations {
				phases[i] = core.IterationStats{
					Iteration:          ev.Iteration,
					PredictedFrontSize: ev.PredictedFrontSize,
					CacheHits:          ev.CacheHits,
					CacheMisses:        ev.CacheMisses,
					FitTime:            msDuration(ev.FitMS),
					EncodeTime:         msDuration(ev.EncodeMS),
					PredictTime:        msDuration(ev.PredictMS),
					EvalTime:           msDuration(ev.EvalMS),
				}
				if ev.Iteration > 0 {
					vals["core.pool_points"] += float64(o.problem.feasible)
				}
			}
			engineLayers(vals, len(o.problem.p.Objectives), phases)
			path := filepath.Join(w.stack.dataDir, "runs", o.id, "journal.jsonl")
			if rec, err := journal.Recover(path); err == nil {
				vals["journal.appends"] += float64(len(rec.Batches))
			}
			if info, err := os.Stat(path); err == nil {
				vals["journal.bytes"] += float64(info.Size())
			}
		}
	}
	if after.Sched != nil {
		vals["sched.wait_ms_p50"] = after.Sched.WaitP50MS
	}
	if after.Coalesce != nil && before.Coalesce != nil {
		vals["sched.merged_calls"] = float64(after.Coalesce.MergedCalls - before.Coalesce.MergedCalls)
		vals["sched.deduped_configs"] = float64(after.Coalesce.Deduped - before.Coalesce.Deduped)
	}
	return vals
}

func msDuration(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }

func (w *daemonTenants) layers(rounds []roundResult) map[string]metric {
	vals := map[string]float64{}
	var waits []float64
	for _, r := range rounds {
		for k, v := range r.layer {
			if k == "sched.wait_ms_p50" {
				waits = append(waits, v)
				continue
			}
			vals[k] += v
		}
	}
	if len(waits) > 0 {
		vals["sched.wait_ms_p50"] = median(waits)
	}
	// The tenants POST only to submit runs, so the POST spans are the
	// admission latencies.
	vals["server.admit_ms_p50"] = median(w.tr.named("client.POST")) * 1e3
	rtts := w.tr.named("worker.POST")
	vals["worker.requests"] = float64(len(rtts))
	vals["worker.rtt_ms_p50"] = median(rtts) * 1e3
	vals["worker.compute_s"] = sum(w.tr.named("worker.eval"))
	for _, s := range w.tr.selfTimes() {
		if s.Name == "worker.POST" {
			vals["worker.wire_s"] = s.SelfS
		}
	}
	if wire := w.stack.poolWire; wire != nil {
		vals["worker.request_bytes"] = float64(wire.reqBytes.Load())
		vals["worker.response_bytes"] = float64(wire.respBytes.Load())
	}
	if vals["core.eval_wall_s"] > 0 {
		vals["core.eval_parallelism"] = vals["worker.compute_s"] / vals["core.eval_wall_s"]
	}
	return layerMetrics(vals)
}
