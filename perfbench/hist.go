package main

import "math/bits"

// Log-linear latency histogram. Values below 2^subBits get one bucket
// each; above that every power of two is split into 2^subBits equal
// sub-buckets, so a bucket is at most 1/64 of its lower bound wide and
// a quantile, interpolated inside its bucket, is within 1/64 of the
// sample it stands for. Recording is one bits.Len64 and one increment,
// with no allocation.
const (
	subBits  = 6
	subCount = 1 << subBits
	nBuckets = (64-subBits+1)*subCount + subCount
)

type hist struct {
	counts [nBuckets]uint64
	n      uint64
}

func bucketOf(v uint64) int {
	if v < subCount {
		return int(v)
	}
	e := bits.Len64(v) - 1 - subBits
	return (e+1)*subCount + int(v>>uint(e)) - subCount
}

// bucketRange returns the lowest value of bucket i and its width.
func bucketRange(i int) (low, width float64) {
	if i < subCount {
		return float64(i), 1
	}
	e := uint(i/subCount - 1)
	return float64(uint64(i%subCount+subCount) << e), float64(uint64(1) << e)
}

func (h *hist) record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(uint64(v))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the value at rank ceil(q·n) (1-based) of the
// recorded samples, placing the bucket's samples evenly across its
// range; 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		if seen+c >= rank {
			low, width := bucketRange(i)
			return low + width*(float64(rank-seen)-0.5)/float64(c)
		}
		seen += c
	}
	return 0
}
