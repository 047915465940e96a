package main

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/geom"
)

// The checkers in this file are written from the definitions, without the
// program's pareto, quality or slambench code, so an output check cannot
// inherit a fault of the code it checks.

// dominates reports whether a is no worse than b in every objective and
// strictly better in one (all objectives minimized).
func dominates(a, b []float64) bool {
	strictly := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			strictly = true
		}
	}
	return strictly
}

// nonDominated returns, by brute force, the distinct objective vectors of
// objs that no other vector dominates, in lexicographic order. Fronts are
// compared as sets of vectors: when several samples share a vector, which
// of them represents it is the program's choice and is not checked.
func nonDominated(objs [][]float64) [][]float64 {
	var out [][]float64
	for i, a := range objs {
		dominated := false
		for j, b := range objs {
			if i != j && dominates(b, a) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, a)
		}
	}
	return vectorSet(out)
}

// vectorSet sorts vectors lexicographically and drops duplicates.
func vectorSet(vs [][]float64) [][]float64 {
	out := slices.Clone(vs)
	slices.SortFunc(out, slices.Compare[[]float64])
	return slices.CompactFunc(out, slices.Equal[[]float64])
}

// sameVectorSet reports whether two collections hold the same distinct
// vectors, compared exactly.
func sameVectorSet(a, b [][]float64) bool {
	return slices.EqualFunc(vectorSet(a), vectorSet(b), slices.Equal[[]float64])
}

// inBox keeps the points strictly better than ref in each of ref's
// objectives; the others add no volume. Points may have more objectives
// than ref: the 3-D sweep hands its slices to the 2-D one.
func inBox(front [][]float64, ref []float64) [][]float64 {
	var out [][]float64
	for _, p := range front {
		if !slices.ContainsFunc(p, math.IsNaN) && allBelow(p, ref) {
			out = append(out, p)
		}
	}
	return out
}

func allBelow(p, ref []float64) bool {
	for i := range ref {
		if p[i] >= ref[i] {
			return false
		}
	}
	return true
}

// hypervolume2D is the area dominated by the points and bounded by ref:
// sort by the first objective and sum the rectangles of a staircase sweep.
func hypervolume2D(pts [][]float64, ref [2]float64) float64 {
	ps := inBox(pts, ref[:])
	slices.SortFunc(ps, func(a, b []float64) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	var stair [][]float64 // the points that lower the best second objective so far
	for _, p := range ps {
		if len(stair) == 0 || p[1] < stair[len(stair)-1][1] {
			stair = append(stair, p)
		}
	}
	area := 0.0
	for i, p := range stair {
		nextX := ref[0]
		if i+1 < len(stair) {
			nextX = stair[i+1][0]
		}
		area += (nextX - p[0]) * (ref[1] - p[1])
	}
	return area
}

// hypervolume3D slices the dominated region along the third objective:
// between consecutive third-objective values the cross-section is the 2-D
// hypervolume of every point at or below the slice.
func hypervolume3D(pts [][]float64, ref [3]float64) float64 {
	ps := inBox(pts, ref[:])
	slices.SortFunc(ps, func(a, b []float64) int { return cmp.Compare(a[2], b[2]) })
	vol := 0.0
	for i := range ps {
		top := ref[2]
		if i+1 < len(ps) {
			top = ps[i+1][2]
		}
		if top <= ps[i][2] {
			continue
		}
		vol += hypervolume2D(ps[:i+1], [2]float64{ref[0], ref[1]}) * (top - ps[i][2])
	}
	return vol
}

// hypervolume dispatches on the objective count (2 or 3).
func hypervolume(pts [][]float64, ref []float64) float64 {
	if len(ref) == 2 {
		return hypervolume2D(pts, [2]float64{ref[0], ref[1]})
	}
	return hypervolume3D(pts, [3]float64{ref[0], ref[1], ref[2]})
}

// normalizedHV is the hypervolume of the points against ref, as a share of
// the box between ideal and ref.
func normalizedHV(pts [][]float64, ideal, ref []float64) float64 {
	box := 1.0
	for k := range ref {
		box *= ref[k] - ideal[k]
	}
	return hypervolume(pts, ref) / box
}

// translationATE is the absolute trajectory error over camera positions:
// the mean and max Euclidean distance between the estimated and the
// ground-truth translation of each frame. Both trajectories start at the
// same pose, so no alignment is needed.
func translationATE(traj, gt []geom.Pose) (mean, max float64, ok bool) {
	if len(traj) == 0 || len(traj) != len(gt) {
		return 0, 0, false
	}
	for i := range traj {
		dx := traj[i].T.X - gt[i].T.X
		dy := traj[i].T.Y - gt[i].T.Y
		dz := traj[i].T.Z - gt[i].T.Z
		d := math.Sqrt(dx*dx + dy*dy + dz*dz)
		mean += d
		max = math.Max(max, d)
	}
	return mean / float64(len(traj)), max, true
}
