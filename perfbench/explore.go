package main

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/param"
)

// exploration is one in-process core.RunContext call with everything the
// checks and the per-layer metrics need from it.
type exploration struct {
	space *param.Space
	eval  core.Evaluator
	opts  core.Options

	res     *core.Result
	phases  []core.IterationStats // every OnIteration call, bootstrap first
	latency float64
	err     error
	// Set only when traced.
	poolPoints int64
}

// explore runs one exploration. With a tracer it wraps the evaluator, the
// backend, the journal recorder, the selector and the sampler in spans
// under one root span, and counts the prediction-pool points.
func explore(tr *tracer, traced bool, spanName string, x *exploration) {
	opts := x.opts
	opts.OnIteration = func(st core.IterationStats) { x.phases = append(x.phases, st) }
	eval := x.eval
	var end func()
	if traced {
		var root int64
		root, end = tr.begin("explore", 0)
		cur := new(atomic.Int64)
		measured := &indexSet{space: x.space, seen: map[int64]bool{}}
		eval = tracedEvaluator{t: tr, name: spanName, inner: x.eval, parent: cur}
		opts.Backend = tracedBackend{t: tr, inner: &core.LocalBackend{Eval: eval}, parent: root, cur: cur, measured: measured}
		if opts.Journal != nil {
			opts.Journal = tracedRecorder{t: tr, inner: opts.Journal, parent: root}
		}
		opts.Selector = tracedSelector{t: tr, inner: core.EvenThinSelector{}, parent: root}
		opts.Sampler = &poolCounter{inner: core.UniformSampler{}, measured: measured, poolCap: poolCap(opts), points: &x.poolPoints}
	}
	start := time.Now()
	x.res, x.err = core.RunContext(context.Background(), x.space, eval, opts)
	x.latency = time.Since(start).Seconds()
	if traced {
		end()
		if x.err == nil && x.space.Size() <= int64(poolCap(opts)) {
			// Enumerated pools never reach the sampler: each round
			// predicts over the whole space.
			x.poolPoints = int64(len(x.res.Iterations)) * x.space.Size()
		}
	}
}

func poolCap(o core.Options) int {
	if o.PoolCap > 0 {
		return o.PoolCap
	}
	return 200_000 // core's documented default
}

// indexSet tracks the design-space indices measured so far in one
// exploration.
type indexSet struct {
	space *param.Space
	mu    sync.Mutex
	seen  map[int64]bool
}

func (s *indexSet) add(cfgs []param.Config) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range cfgs {
		if idx, err := s.space.IndexOf(c); err == nil {
			s.seen[idx] = true
		}
	}
}

// poolCounter passes draws through to the inner sampler unchanged. A draw
// of the pool size is the fresh part of a prediction pool; the engine adds
// every measured index the draw misses, so the pool holds both.
type poolCounter struct {
	inner    core.Sampler
	measured *indexSet
	poolCap  int
	points   *int64
}

func (p *poolCounter) Draw(space *param.Space, rng *rand.Rand, n int) []int64 {
	out := p.inner.Draw(space, rng, n)
	if n == p.poolCap {
		p.measured.mu.Lock()
		missed := len(p.measured.seen)
		for _, idx := range out {
			if p.measured.seen[idx] {
				missed--
			}
		}
		p.measured.mu.Unlock()
		*p.points += int64(len(out) + missed)
	}
	return out
}

// checkExploration verifies the invariants every exploration must keep:
// distinct sample indices, configs that decode from their indices, a
// sample count equal to the bootstrap plus every round's new samples
// within the budget, and a front equal to the brute-force non-dominated
// set of the measured objectives.
func checkExploration(x *exploration) error {
	res, o := x.res, x.opts
	seen := map[int64]bool{}
	all := make([][]float64, 0, len(res.Samples))
	for _, s := range res.Samples {
		if seen[s.Index] {
			return checkf("index %d measured twice", s.Index)
		}
		seen[s.Index] = true
		if !slices.Equal(x.space.AtIndex(s.Index), s.Config) {
			return checkf("sample %d: config does not decode from its index", s.Index)
		}
		if len(s.Objs) != o.Objectives {
			return checkf("sample %d: %d objectives, want %d", s.Index, len(s.Objs), o.Objectives)
		}
		all = append(all, s.Objs)
	}
	if len(x.phases) == 0 || x.phases[0].NewSamples != min(o.RandomSamples, int(x.space.Size())) {
		return checkf("bootstrap did not measure %d configurations", o.RandomSamples)
	}
	total := 0
	for i, ph := range x.phases {
		if i > 0 && ph.NewSamples > o.MaxBatch {
			return checkf("round %d measured %d > max batch %d", ph.Iteration, ph.NewSamples, o.MaxBatch)
		}
		total += ph.NewSamples
	}
	if total != len(res.Samples) || len(x.phases) > o.MaxIterations+1 {
		return checkf("%d samples, but the phases measured %d over %d phases", len(res.Samples), total, len(x.phases))
	}
	if !sameVectorSet(frontObjs(res), nonDominated(all)) {
		return checkf("front differs from the brute-force non-dominated set")
	}
	return nil
}

func frontObjs(res *core.Result) [][]float64 {
	out := make([][]float64, len(res.Front))
	for i, p := range res.Front {
		out[i] = p.Objs
	}
	return out
}
