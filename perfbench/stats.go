package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a
// p99 needs 1,000 samples, a p50 needs 20.
const minTail = 10

// percentile returns the nearest-rank q-quantile of samples and whether
// at least minTail samples lie beyond it. samples is sorted in place.
func percentile(samples []float64, q float64) (float64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return samples[rank-1], n-rank >= minTail
}

// mustPercentile is segmentPercentile for a reported end-to-end figure:
// too few samples is an error, not a number.
func mustPercentile(what string, samples []float64, q float64) (float64, error) {
	v, ok := segmentPercentile(samples, q)
	if !ok {
		return 0, fmt.Errorf("%s: %d samples are too few for p%g (need %d beyond it)",
			what, len(samples), q*100, minTail)
	}
	return v, nil
}

// segmentSize is the number of samples (blocks, or reads) in one segment
// of a window: a segment's p90 has 25 samples beyond it.
const segmentSize = 250

// segments splits n time-ordered samples into consecutive segments of
// segmentSize, the remainder joining the last one, and returns the
// segment boundaries as [start, end) index pairs (one segment when n is
// smaller than segmentSize).
func segments(n int) [][2]int {
	k := max(1, n/segmentSize)
	out := make([][2]int, k)
	for i := range out {
		out[i] = [2]int{i * segmentSize, (i + 1) * segmentSize}
	}
	out[k-1][1] = n
	return out
}

// segmentPercentile is the reported form of a window percentile: q of
// each segment of the time-ordered samples, and the median across the
// segments, so that one host hiccup inside a run does not decide the
// run's figure. ok is false when a segment has fewer than minTail
// samples beyond q.
func segmentPercentile(samples []float64, q float64) (float64, bool) {
	segs := segments(len(samples))
	per := make([]float64, 0, len(segs))
	allOK := true
	for _, s := range segs {
		v, ok := percentile(append([]float64(nil), samples[s[0]:s[1]]...), q)
		allOK = allOK && ok
		per = append(per, v)
	}
	return median(per), allOK
}

// median returns the middle of values (the mean of the two middle ones
// for an even count); values is sorted in place.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	sort.Float64s(values)
	if n%2 == 1 {
		return values[n/2]
	}
	return (values[n/2-1] + values[n/2]) / 2
}

// quartiles returns the three cut points of values the way Python's
// statistics.quantiles(values, n=4) computes them (the default
// "exclusive" method), so compare mode reads spreads the same way the
// acceptance check does. It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64, ok bool) {
	ld := len(values)
	if ld < 2 {
		return 0, 0, 0, false
	}
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2], true
}

// clientEvent is one SSE report event as the client read it: the feed
// version and block height it carries and the read instant (ns since
// the run's base).
type clientEvent struct {
	version uint64
	height  int64
	read    int64
}

// blockToByte attributes every block height in [first, last] to the
// first client event whose height is at least the block's — the report
// that covered it, its own or a later one when the block was coalesced —
// and returns each block's latency from its due time to that read, in
// ns. Events are in arrival order, so heights never decrease. covered[i]
// is the event index for block first+i, or -1 when no event covered the
// block by the end of the run (a failed block).
func blockToByte(events []clientEvent, first, last int64, due func(h int64) int64) (lat []int64, covered []int, failed int) {
	lat = make([]int64, 0, last-first+1)
	covered = make([]int, 0, last-first+1)
	j := 0
	for h := first; h <= last; h++ {
		for j < len(events) && events[j].height < h {
			j++
		}
		if j == len(events) {
			covered = append(covered, -1)
			failed++
			continue
		}
		covered = append(covered, j)
		lat = append(lat, events[j].read-due(h))
	}
	return lat, covered, failed
}

// toUnit converts ns samples to float64 in the given unit (1e3 for µs,
// 1e6 for ms).
func toUnit(ns []int64, per float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / per
	}
	return out
}

// ratio is a/b, and 0 when b is 0 (nothing happened, so nothing failed).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
