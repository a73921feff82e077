package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestBucketsAreContiguous(t *testing.T) {
	prev := -1
	for v := uint64(0); v < 1<<16; v++ {
		b := bucketOf(v)
		if b != prev && b != prev+1 {
			t.Fatalf("bucketOf(%d) = %d after %d: buckets skip", v, b, prev)
		}
		prev = b
	}
	if b := bucketOf(math.MaxUint64); b >= nBuckets {
		t.Fatalf("bucketOf(max) = %d, want < %d", b, nBuckets)
	}
}

// TestQuantilesMatchSortedSamples checks every reported quantile
// against the exact sample at the same rank: it must be within 1/64 of
// it (one bucket width), far inside the 12.5% the benchmark needs.
func TestQuantilesMatchSortedSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, shape := range []struct {
		name string
		draw func() int64
	}{
		{"lognormal", func() int64 { return int64(math.Exp(rng.NormFloat64()*1.5 + 8)) }},
		{"uniform", func() int64 { return rng.Int63n(5_000_000) }},
		{"bimodal", func() int64 {
			if rng.Intn(100) < 3 {
				return 200_000 + rng.Int63n(50_000)
			}
			return 400 + rng.Int63n(200)
		}},
	} {
		var h hist
		samples := make([]int64, 100_000)
		for i := range samples {
			samples[i] = shape.draw()
			h.record(samples[i])
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		for _, q := range []float64{0.001, 0.1, 0.5, 0.9, 0.97, 0.99, 0.999, 1} {
			rank := int(math.Ceil(q * float64(len(samples))))
			exact := float64(samples[rank-1])
			got := h.quantile(q)
			if math.Abs(got-exact) > exact/64+1 {
				t.Errorf("%s q=%v: histogram %v, exact %v (error %.2f%%)",
					shape.name, q, got, exact, 100*math.Abs(got-exact)/exact)
			}
		}
	}
}

func TestMergeEqualsSingleHistogram(t *testing.T) {
	var a, b, all hist
	for v := int64(0); v < 10_000; v += 7 {
		if v%2 == 0 {
			a.record(v)
		} else {
			b.record(v)
		}
		all.record(v)
	}
	a.merge(&b)
	if a != all {
		t.Fatal("merged histogram differs from the one that saw every sample")
	}
}
