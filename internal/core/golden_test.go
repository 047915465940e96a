package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/param"
)

// runDigest hashes a result's sample-index sequence and its measured front
// (IDs and objective bits, in order) into one hex string.
func runDigest(res *Result) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(res.Samples)))
	for _, s := range res.Samples {
		put(uint64(s.Index))
	}
	put(uint64(len(res.Front)))
	for _, p := range res.Front {
		put(uint64(p.ID))
		for _, v := range p.Objs {
			put(math.Float64bits(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestThreeObjectiveSubsampledGolden pins a seeded 3-objective run on a
// space larger than its PoolCap. There the pool is the sampler's draws in
// random order followed by the evaluated indices, so pool order is not ID
// order, and forest predictions tie often. The predicted front keeps the
// first of each duplicate prediction vector in pool order, and that choice
// decides which configurations the run measures next: a filter that kept,
// say, the lowest ID instead would change the sample sequence.
func TestThreeObjectiveSubsampledGolden(t *testing.T) {
	space := benchSpace(t) // 4 800 points
	eval := EvaluatorFunc(func(cfg param.Config) []float64 {
		a, b, c := cfg[0], cfg[1], cfg[2]
		return []float64{a + 0.1*c, b + 0.1*c, (4-a)*(4-b)/4 + 0.3/c}
	})
	res, err := RunContext(context.Background(), space, eval, Options{
		Objectives:    3,
		RandomSamples: 40,
		MaxIterations: 4,
		MaxBatch:      30,
		PoolCap:       1500,
		Seed:          41,
	})
	if err != nil {
		t.Fatal(err)
	}
	const want = "59030a4b8eb4e4f8180edab877c6f9b3de415d4fe78cd2583052d1fed565f1ca"
	if got := runDigest(res); got != want {
		t.Fatalf("digest %s, want %s (%d samples, front of %d)", got, want, len(res.Samples), len(res.Front))
	}
}
