package stats

import "math/bits"

// Histogram counts samples in power-of-two buckets: bucket i holds
// values in [2^(i-1), 2^i), bucket 0 holds zero. It is the memory-
// latency distribution tool of the observer's request-latency table:
// cheap to record, good enough for percentile reporting.
type Histogram struct {
	buckets [40]uint64
	count   uint64
	sum     uint64
	max     uint64
}

// Record adds one sample.
func (h *Histogram) Record(v uint64) {
	i := bits.Len64(v)
	if i >= len(h.buckets) {
		i = len(h.buckets) - 1
	}
	h.buckets[i]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count reports the number of samples.
func (h *Histogram) Count() uint64 { return h.count }

// Mean reports the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Max reports the largest recorded sample.
func (h *Histogram) Max() uint64 { return h.max }

// Percentile returns an upper bound of the p-th percentile (p in
// 0..100): the top of the bucket containing it.
func (h *Histogram) Percentile(p float64) uint64 {
	if h.count == 0 {
		return 0
	}
	target := uint64(p / 100 * float64(h.count))
	if target >= h.count {
		target = h.count - 1
	}
	var seen uint64
	for i, c := range h.buckets {
		seen += c
		if seen > target {
			if i == 0 {
				return 0
			}
			if i == len(h.buckets)-1 {
				// Overflow bucket: the power-of-two bound is meaningless.
				return h.max
			}
			top := uint64(1)<<i - 1
			if top > h.max {
				top = h.max
			}
			return top
		}
	}
	return h.max
}
