package main

import (
	"encoding/json"
	"maps"
	"math"
	"os"
	"slices"
	"testing"

	"repro/internal/geom"
)

func TestNonDominatedKeepsDistinctFrontVectors(t *testing.T) {
	objs := [][]float64{
		{1, 5},
		{2, 2},
		{2, 2}, // duplicate of a front vector: kept once
		{3, 3}, // dominated by {2, 2}
		{5, 1},
		{5, 1.5}, // dominated by {5, 1}
		{1, 6},   // dominated by {1, 5}
	}
	want := [][]float64{{1, 5}, {2, 2}, {5, 1}}
	if got := nonDominated(objs); !slices.EqualFunc(got, want, slices.Equal[[]float64]) {
		t.Fatalf("nonDominated = %v, want %v", got, want)
	}
}

func TestNonDominatedThreeObjectives(t *testing.T) {
	objs := [][]float64{
		{1, 1, 3},
		{1, 3, 1},
		{3, 1, 1},
		{2, 2, 2}, // incomparable with the three above: kept
		{2, 2, 3}, // dominated by {2, 2, 2}
	}
	got := nonDominated(objs)
	if len(got) != 4 || slices.ContainsFunc(got, func(v []float64) bool { return slices.Equal(v, []float64{2, 2, 3}) }) {
		t.Fatalf("nonDominated = %v", got)
	}
}

func TestSameVectorSetIgnoresOrderAndDuplicates(t *testing.T) {
	a := [][]float64{{1, 2}, {3, 4}, {1, 2}}
	b := [][]float64{{3, 4}, {1, 2}}
	if !sameVectorSet(a, b) {
		t.Fatal("equal sets reported different")
	}
	if sameVectorSet(a, [][]float64{{3, 4}}) || sameVectorSet(a, [][]float64{{3, 4}, {1, 2.0000001}}) {
		t.Fatal("different sets reported equal")
	}
}

func TestHypervolume2D(t *testing.T) {
	ref := [2]float64{4, 4}
	cases := []struct {
		pts  [][]float64
		want float64
	}{
		{nil, 0},
		{[][]float64{{1, 1}}, 9},
		// Staircase: 3×1 strip from (1,3) plus the 2×3 block under (2,1).
		{[][]float64{{1, 3}, {2, 1}}, 1*1 + 2*3},
		// A dominated point and a point outside the box add nothing.
		{[][]float64{{1, 3}, {2, 1}, {3, 3}, {0, 5}}, 7},
		// A point on the reference boundary adds nothing.
		{[][]float64{{4, 0}}, 0},
	}
	for _, c := range cases {
		if got := hypervolume2D(c.pts, ref); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("hypervolume2D(%v) = %g, want %g", c.pts, got, c.want)
		}
	}
}

func TestHypervolume3D(t *testing.T) {
	ref := [3]float64{2, 2, 2}
	cases := []struct {
		pts  [][]float64
		want float64
	}{
		{[][]float64{{0, 0, 0}}, 8},
		{[][]float64{{1, 1, 1}}, 1},
		// Boxes of volume 2 and 2 that share a unit cube.
		{[][]float64{{0, 1, 1}, {1, 0, 1}}, 3},
		// Boxes of volume 4 and 2 that share a unit cube.
		{[][]float64{{0, 0, 1}, {1, 1, 0}}, 5},
		// Outside the box.
		{[][]float64{{3, 0, 0}}, 0},
	}
	for _, c := range cases {
		if got := hypervolume3D(c.pts, ref); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("hypervolume3D(%v) = %g, want %g", c.pts, got, c.want)
		}
	}
}

func TestHypervolumeOfTrueDTLZ2FrontIsBelowTheSphereBound(t *testing.T) {
	// Any front on or outside the unit sphere dominates no more than the
	// box minus the sphere's positive orthant.
	for _, m := range []int{2, 3} {
		d := &dtlz2{m: m}
		var pts [][]float64
		n := 30
		for i := 0; i <= n; i++ {
			for j := 0; j <= n; j++ {
				if m == 2 && j > 0 {
					break
				}
				pts = append(pts, d.onSphere([]float64{float64(i) / float64(n), float64(j) / float64(n)}[:m-1], 1))
			}
		}
		ref := make([]float64, m)
		box := 1.0
		for k := range ref {
			ref[k] = engineRef
			box *= engineRef
		}
		orthant := math.Pi / 4 // quarter disc
		if m == 3 {
			orthant = math.Pi / 6 // eighth of the unit ball
		}
		got := hypervolume(pts, ref)
		if got > box-orthant || got < 0.95*(box-orthant) {
			t.Errorf("m=%d: hypervolume %g, want just below %g", m, got, box-orthant)
		}
	}
}

func TestTranslationATE(t *testing.T) {
	pose := func(x, y, z float64) geom.Pose { return geom.Pose{T: geom.Vec3{X: x, Y: y, Z: z}} }
	gt := []geom.Pose{pose(0, 0, 0), pose(1, 0, 0), pose(2, 0, 0)}
	traj := []geom.Pose{pose(0, 0, 0), pose(1, 3, 4), pose(2, 0, 1)}
	mean, max, ok := translationATE(traj, gt)
	if !ok || mean != 2 || max != 5 {
		t.Fatalf("translationATE = %g, %g, %v; want 2, 5, true", mean, max, ok)
	}
	if _, _, ok := translationATE(traj[:2], gt); ok {
		t.Fatal("length mismatch accepted")
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := quartiles(xs); got != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", got)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if got := quartiles([]float64{2, 1}); got != [3]float64{0.75, 1.5, 2.25} {
		t.Fatalf("quartiles = %v", got)
	}
}

func TestCoveredMergesOverlappingChildren(t *testing.T) {
	ivs := [][2]int64{{5, 8}, {2, 4}, {3, 6}, {9, 20}}
	// [2,8) ∪ [9,10) inside [0,10).
	if got := covered(0, 10, ivs); got != 7 {
		t.Fatalf("covered = %d, want 7", got)
	}
}

// TestBenchmarkJSONNamesEveryReportedMetric keeps BENCHMARK.json and the
// program in step: every metric a run reports is declared there with the
// same unit, and nothing else is.
func TestBenchmarkJSONNamesEveryReportedMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for name, unit := range layerUnits {
		want[name] = unit
	}
	for name, unit := range traceUnits {
		want[name] = unit
	}
	got := map[string]string{}
	for _, m := range bench.PerLayer {
		got[m.Name] = m.Unit
	}
	if !maps.Equal(got, want) {
		t.Errorf("per_layer = %v, the traced run reports %v", got, want)
	}
	got = map[string]string{}
	for _, m := range bench.EndToEnd {
		got[m.Name] = m.Unit
	}
	if !maps.Equal(got, endToEndUnits) {
		t.Errorf("end_to_end = %v, the run reports %v", got, endToEndUnits)
	}
}
