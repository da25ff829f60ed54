package main

import (
	"math/bits"
	"time"
)

// subBits sets the histogram resolution: values below 2^subBits ns get one
// bucket each, larger values 2^subBits linear sub-buckets per power of two,
// so no bucket is wider than 1/128 (0.8%) of the values it holds.
const subBits = 7

// hist is a log-linear latency histogram over nanoseconds. Histograms are
// mergeable by adding counts, so every load worker records into its own and
// the phases merge them afterwards without sharing a lock on the hot path.
type hist struct {
	counts []uint64
	n      uint64
}

func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < 1<<subBits {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 - subBits
	return (e+1)<<subBits + int(v>>e) - 1<<subBits
}

// bucketRange returns a bucket's lower bound and width in ns.
func bucketRange(i int) (low, width float64) {
	if i < 1<<subBits {
		return float64(i), 1
	}
	e := i>>subBits - 1
	m := i&(1<<subBits-1) + 1<<subBits
	return float64(int64(m) << e), float64(int64(1) << e)
}

func (h *hist) record(d time.Duration) {
	i := bucketOf(int64(d))
	if i >= len(h.counts) {
		grown := make([]uint64, i+1)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[i]++
	h.n++
}

func (h *hist) merge(o *hist) {
	if len(o.counts) > len(h.counts) {
		grown := make([]uint64, len(o.counts))
		copy(grown, h.counts)
		h.counts = grown
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in milliseconds, interpolated linearly by
// rank inside the bucket that holds it; 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var before float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if before+float64(c) > rank {
			low, width := bucketRange(i)
			return (low + width*(rank-before+0.5)/float64(c)) / 1e6
		}
		before += float64(c)
	}
	low, width := bucketRange(len(h.counts) - 1)
	return (low + width) / 1e6
}
