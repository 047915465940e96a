// Package pareto implements the multi-objective machinery of HyperMapper:
// dominance tests, non-dominated (Pareto) filtering, front merging, the 2-D
// hypervolume indicator, and the selectors used for dynamic adaptation
// ("fastest configuration whose accuracy stays under the 5 cm limit").
//
// All objectives are minimized. Points carry the configuration index of the
// design space they came from so fronts can be mapped back to parameter
// settings.
package pareto

import (
	"cmp"
	"math"
	"slices"
)

// Point is one evaluated configuration: its design-space index and its
// objective vector (all objectives minimized).
type Point struct {
	ID   int64
	Objs []float64
}

// Dominates reports whether objective vector a Pareto-dominates b: a is no
// worse in every objective and strictly better in at least one. Vectors must
// have equal length.
func Dominates(a, b []float64) bool {
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

// Front returns the non-dominated subset of points. Duplicate objective
// vectors are kept once (the first occurrence in input order wins; for 2
// objectives, the lowest ID). The result is sorted by the objectives in
// order, then by ID, for deterministic output.
//
// A 2-objective fast path runs in O(n log n). With 3 or more objectives a
// running-front filter keeps a window of the points no earlier point
// covers, which costs O(n·w) for a front of w points and allocates nothing
// of the input's size. An input with a NaN coordinate falls back to the
// O(n²) pairwise filter, because NaN makes dominance non-transitive and
// the window relies on transitivity.
func Front(points []Point) []Point {
	if len(points) == 0 {
		return nil
	}
	if len(points[0].Objs) == 2 {
		return front2D(points)
	}
	return frontK(points)
}

// FrontInPlace is Front, but it may reorder points instead of copying them.
// The active-learning loop uses it to filter 10⁵-point prediction pools
// without duplicating the pool slice every iteration; callers that need the
// input order preserved must use Front.
func FrontInPlace(points []Point) []Point {
	if len(points) == 0 {
		return nil
	}
	if len(points[0].Objs) == 2 {
		return front2DInPlace(points)
	}
	return frontK(points)
}

func front2D(points []Point) []Point {
	return front2DInPlace(append([]Point(nil), points...))
}

// front2DInPlace sorts its argument and sweeps it once: after ordering by
// (obj0, obj1, ID), a point is non-dominated exactly when its obj1 strictly
// improves on everything before it. Duplicate objective vectors fail the
// strict test, so only the first occurrence (lowest ID) is kept. The sort is
// unstable but the comparator is a total order (IDs break every tie), so the
// output is deterministic; slices.SortFunc beats sort.Slice's reflection-
// based swaps by a wide margin on the 10⁵-point prediction pools.
func front2DInPlace(sorted []Point) []Point {
	slices.SortFunc(sorted, func(a, b Point) int {
		if a.Objs[0] != b.Objs[0] {
			return cmp.Compare(a.Objs[0], b.Objs[0])
		}
		if a.Objs[1] != b.Objs[1] {
			return cmp.Compare(a.Objs[1], b.Objs[1])
		}
		return cmp.Compare(a.ID, b.ID)
	})
	var out []Point
	best1 := math.Inf(1)
	for _, p := range sorted {
		if p.Objs[1] < best1 {
			out = append(out, p)
			best1 = p.Objs[1]
		}
	}
	return out
}

// frontK filters a front of 3 or more objectives, leaving its input
// untouched: the running-front window when every coordinate is a number,
// the pairwise frontKD otherwise.
func frontK(points []Point) []Point {
	for _, p := range points {
		for _, v := range p.Objs {
			if math.IsNaN(v) {
				return frontKD(points)
			}
		}
	}
	return frontWindow(points)
}

// frontWindow is a block-nested-loop filter in the Kung–Luccio–Preparata
// family. It walks the points in input order and keeps a window of the
// points that no point seen so far dominates or equals: a point covered by
// a window member (≤ in every objective) is dropped; otherwise it evicts
// the members it strictly dominates and joins the window. Dominance is
// transitive on NaN-free vectors, so the window covers every processed
// point, and it is exactly frontKD's output, including its "first in input
// order wins" duplicate rule. The window is an antichain, so a point that
// some member covers dominates no member: the scan that finds the cover has
// evicted nothing yet.
//
// A member that covers a point moves to the front of the window. Which
// member is found first does not change the output, and on a prediction
// pool, where neighbouring points tend to fall to the same member, it cuts
// the scans of dropped points several times over.
func frontWindow(points []Point) []Point {
	var win []Point
next:
	for _, p := range points {
		kept := 0
		for j, w := range win {
			wCovers, pCovers := covers(w.Objs, p.Objs)
			if wCovers {
				copy(win[1:j+1], win[:j])
				win[0] = w
				continue next
			}
			if !pCovers {
				win[kept] = w
				kept++
			}
		}
		win = append(win[:kept], p)
	}
	sortFront(win)
	return win
}

// covers reports whether a ≤ b and whether b ≤ a in every objective. When
// exactly one holds, that vector strictly dominates the other.
func covers(a, b []float64) (aCovers, bCovers bool) {
	aCovers, bCovers = true, true
	for i, av := range a {
		bv := b[i]
		if av > bv {
			aCovers = false
		} else if av < bv {
			bCovers = false
		}
		if !aCovers && !bCovers {
			break
		}
	}
	return aCovers, bCovers
}

// frontKD is the pairwise O(n²) filter: a point survives when no other
// point dominates it and no earlier point equals it. It is the fallback
// for inputs holding NaN, where the window's transitivity argument fails,
// and the reference the window is tested against.
func frontKD(points []Point) []Point {
	var out []Point
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i == j {
				continue
			}
			if Dominates(q.Objs, p.Objs) {
				dominated = true
				break
			}
			// Duplicate objective vectors: keep only the first.
			if j < i && equalObjs(q.Objs, p.Objs) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	sortFront(out)
	return out
}

// sortFront orders a front by its objectives, then ID. A NaN-free front
// holds no two equal objective vectors, so there the order is total.
func sortFront(front []Point) {
	slices.SortFunc(front, func(a, b Point) int {
		for k := range a.Objs {
			if a.Objs[k] != b.Objs[k] {
				return cmp.Compare(a.Objs[k], b.Objs[k])
			}
		}
		return cmp.Compare(a.ID, b.ID)
	})
}

func equalObjs(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Merge returns the Pareto front of the union of a and b.
func Merge(a, b []Point) []Point {
	all := make([]Point, 0, len(a)+len(b))
	all = append(all, a...)
	all = append(all, b...)
	return Front(all)
}

// Hypervolume2D returns the hypervolume indicator of a 2-objective front with
// respect to reference point ref (both objectives minimized; ref must be
// dominated by every front point for the result to be meaningful). Points at
// or beyond the reference contribute nothing.
func Hypervolume2D(front []Point, ref [2]float64) float64 {
	f := front2D(front)
	hv := 0.0
	prevX := ref[0]
	// front2D sorts ascending in obj0 and strictly descending in obj1; sweep
	// from the right (largest obj0) to accumulate rectangles.
	for i := len(f) - 1; i >= 0; i-- {
		p := f[i]
		x := math.Min(p.Objs[0], ref[0])
		y := math.Min(p.Objs[1], ref[1])
		w := prevX - x
		h := ref[1] - y
		if w > 0 && h > 0 {
			hv += w * h
		}
		if x < prevX {
			prevX = x
		}
	}
	return hv
}

// Filter returns the points satisfying keep.
func Filter(points []Point, keep func(Point) bool) []Point {
	var out []Point
	for _, p := range points {
		if keep(p) {
			out = append(out, p)
		}
	}
	return out
}

// CountValid returns how many points have Objs[obj] < bound — the paper's
// "valid configurations" metric (max ATE < 5 cm).
func CountValid(points []Point, obj int, bound float64) int {
	n := 0
	for _, p := range points {
		if p.Objs[obj] < bound {
			n++
		}
	}
	return n
}

// BestBy returns the point minimizing objective obj, and false if points is
// empty.
func BestBy(points []Point, obj int) (Point, bool) {
	if len(points) == 0 {
		return Point{}, false
	}
	best := points[0]
	for _, p := range points[1:] {
		if p.Objs[obj] < best.Objs[obj] {
			best = p
		}
	}
	return best, true
}

// BestUnderConstraint returns the point minimizing objective obj among those
// with Objs[cObj] < bound — e.g. "fastest configuration with max ATE under
// 5 cm", the selection rule used for the crowd-sourced app and for dynamic
// adaptation. ok is false if no point satisfies the constraint.
func BestUnderConstraint(points []Point, obj, cObj int, bound float64) (best Point, ok bool) {
	for _, p := range points {
		if p.Objs[cObj] >= bound {
			continue
		}
		if !ok || p.Objs[obj] < best.Objs[obj] {
			best, ok = p, true
		}
	}
	return best, ok
}

// Contains reports whether the front contains a point with the given ID.
func Contains(points []Point, id int64) bool {
	for _, p := range points {
		if p.ID == id {
			return true
		}
	}
	return false
}

// IDs returns the configuration IDs of points, in order.
func IDs(points []Point) []int64 {
	out := make([]int64, len(points))
	for i, p := range points {
		out[i] = p.ID
	}
	return out
}
