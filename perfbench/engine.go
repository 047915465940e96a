package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/param"
	"repro/internal/slambench"
)

// engineBudget is one engine-pool exploration over the 1.8M-point KFusion
// space at the default pool cap, so every round predicts over 200k points.
type engineBudget struct {
	objectives                int
	random, iterations, batch int
}

// The 3-objective bootstrap is large because evaluations are free and a
// forest fit on 100 samples predicts fronts of 300 to 900 points, whose
// filter cost then swings the round time from seed to seed.
var engineExplorations = []engineBudget{
	{2, 100, 4, 50},
	{3, 1000, 8, 50},
}

// engineRef is the fixed hypervolume reference in every objective; the
// ideal point is the origin.
const engineRef = 1.5

// dtlz2 is an analytic DTLZ2-shaped objective over a space's normalized
// level positions x ∈ [0,1]: the angle parameters place a point on the
// unit sphere's positive orthant and every other parameter pushes it out
// by g = Σ (x − 0.5)². It costs microseconds, so the engine's own work
// dominates the exploration.
type dtlz2 struct {
	space  *param.Space
	m      int
	angles []int                 // parameter positions of the m−1 angles
	pos    []map[float64]float64 // value → normalized level position, per parameter
}

// engineAngles are the KFusion parameters with the most levels: µ (8) and
// the ICP threshold (6). More levels give a finer true front.
var engineAngles = []string{slambench.KFMu, slambench.KFICPThresh}

func newDTLZ2(space *param.Space, m int) *dtlz2 {
	d := &dtlz2{space: space, m: m}
	for _, name := range engineAngles[:m-1] {
		d.angles = append(d.angles, space.IndexOfName(name))
	}
	for _, p := range space.Params() {
		pos := map[float64]float64{}
		for i, v := range p.Values {
			pos[v] = float64(i) / float64(len(p.Values)-1)
		}
		d.pos = append(d.pos, pos)
	}
	return d
}

func (d *dtlz2) Evaluate(cfg param.Config) []float64 {
	theta := make([]float64, 0, d.m-1)
	g := 0.0
	for j, v := range cfg {
		x := d.pos[j][v]
		if slices.Contains(d.angles, j) {
			theta = append(theta, x)
		} else {
			g += (x - 0.5) * (x - 0.5)
		}
	}
	return d.onSphere(theta, 1+g)
}

// onSphere maps the angles in angle-parameter order to the point at the
// given radius.
func (d *dtlz2) onSphere(theta []float64, radius float64) []float64 {
	f := make([]float64, d.m)
	for k := range f {
		v := radius
		for i := 0; i < d.m-1-k; i++ {
			v *= math.Cos(theta[i] * math.Pi / 2)
		}
		if k > 0 {
			v *= math.Sin(theta[d.m-1-k] * math.Pi / 2)
		}
		f[k] = v
	}
	return f
}

// trueFront enumerates the space's true Pareto front: every angle level at
// the smallest radius the distance parameters' levels allow.
func (d *dtlz2) trueFront() [][]float64 {
	gMin := 0.0
	for j, p := range d.space.Params() {
		if slices.Contains(d.angles, j) {
			continue
		}
		best := math.Inf(1)
		for i := range p.Values {
			x := float64(i) / float64(len(p.Values)-1)
			best = math.Min(best, (x-0.5)*(x-0.5))
		}
		gMin += best
	}
	grids := make([][]float64, len(d.angles))
	for i, j := range d.angles {
		n := len(d.space.Params()[j].Values)
		for l := 0; l < n; l++ {
			grids[i] = append(grids[i], float64(l)/float64(n-1))
		}
	}
	var front [][]float64
	var walk func(i int, theta []float64)
	walk = func(i int, theta []float64) {
		if i == len(grids) {
			front = append(front, d.onSphere(theta, 1+gMin))
			return
		}
		for _, x := range grids[i] {
			walk(i+1, append(theta, x))
		}
	}
	walk(0, nil)
	return nonDominated(front)
}

type enginePool struct {
	tr     *tracer
	seed   int64
	space  *param.Space
	evals  []*dtlz2
	trueHV []float64
}

func newEnginePool(seed int64, dir string, tr *tracer) workload {
	return &enginePool{tr: tr, seed: seed}
}

func (w *enginePool) close() {}

// setup builds the design space and the objectives, and computes each
// objective's true-front hypervolume. Building them takes microseconds,
// so it is timed many times for a steady median.
func (w *enginePool) setup() ([]float64, error) {
	var times []float64
	for i := 0; i < 25; i++ {
		start := time.Now()
		w.space = slambench.KFusionSpace()
		w.evals = w.evals[:0]
		for _, b := range engineExplorations {
			w.evals = append(w.evals, newDTLZ2(w.space, b.objectives))
		}
		times = append(times, time.Since(start).Seconds())
	}
	w.trueHV = nil
	for _, d := range w.evals {
		w.trueHV = append(w.trueHV, normalizedHV(d.trueFront(), make([]float64, d.m), engineRefs(d.m)))
	}
	return times, nil
}

func engineRefs(m int) []float64 {
	ref := make([]float64, m)
	for k := range ref {
		ref[k] = engineRef
	}
	return ref
}

func (w *enginePool) round(r int, traced bool) (roundResult, error) {
	res := roundResult{latencies: map[string][]float64{}, hv: map[string][]float64{}}
	for k, b := range engineExplorations {
		d := w.evals[k]
		x := &exploration{
			space: w.space,
			eval:  d,
			opts: core.Options{
				Objectives:    b.objectives,
				RandomSamples: b.random,
				MaxIterations: b.iterations,
				MaxBatch:      b.batch,
				Seed:          exploreSeed(w.seed, r, k),
			},
		}
		explore(w.tr, traced, "engine.objective", x)
		res.attempted++
		res.xs = append(res.xs, x)
		if x.err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %d-objective exploration failed: %v\n", b.objectives, x.err)
			res.failed++
			continue
		}
		res.wall += x.latency
		name := fmt.Sprintf("dtlz2-%dobj", b.objectives)
		res.latencies[name] = append(res.latencies[name], x.latency)
		if err := checkExploration(x); err != nil {
			return res, fmt.Errorf("%d objectives, round %d: %w", b.objectives, r, err)
		}
		for _, s := range x.res.Samples {
			if want := d.Evaluate(s.Config); !slices.Equal(want, s.Objs) {
				return res, checkf("%d objectives: sample %d measured %v, objective gives %v", b.objectives, s.Index, s.Objs, want)
			}
		}
		hv := normalizedHV(frontObjs(x.res), make([]float64, b.objectives), engineRefs(b.objectives))
		if hv > w.trueHV[k]*(1+1e-12) {
			return res, checkf("%d objectives: hypervolume %g exceeds the true front's %g", b.objectives, hv, w.trueHV[k])
		}
		res.hv[name] = append(res.hv[name], hv)
	}
	return res, nil
}

func (w *enginePool) layers(rounds []roundResult) map[string]metric {
	return layerMetrics(inProcessLayers(w.tr, rounds, "engine.objective"))
}
