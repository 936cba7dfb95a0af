package telemetry

import (
	"math/rand"
	"testing"
	"time"
)

func TestHistogramBucketing(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{0, 1, 2, 3, 1024, time.Hour} {
		h.Observe(d)
	}
	s := h.Snapshot()
	if got := s.Count(); got != 6 {
		t.Fatalf("count = %d, want 6", got)
	}
	if s.Buckets[0] != 1 { // the zero observation
		t.Errorf("bucket 0 = %d, want 1", s.Buckets[0])
	}
	if s.Buckets[1] != 1 { // 1 ns
		t.Errorf("bucket 1 = %d, want 1", s.Buckets[1])
	}
	if s.Buckets[2] != 2 { // 2 and 3 ns
		t.Errorf("bucket 2 = %d, want 2", s.Buckets[2])
	}
	if s.Buckets[11] != 1 { // 1024 ns has bit length 11
		t.Errorf("bucket 11 = %d, want 1", s.Buckets[11])
	}
	if s.Buckets[NumBuckets-1] != 1 { // an hour overflows into the last bucket
		t.Errorf("last bucket = %d, want 1", s.Buckets[NumBuckets-1])
	}
	if want := int64(6 + 1024 + time.Hour); s.SumNanos != want {
		t.Errorf("sum = %d, want %d", s.SumNanos, want)
	}
	h.Observe(-time.Second) // negative counts as zero
	if s := h.Snapshot(); s.Buckets[0] != 2 {
		t.Errorf("negative observation: bucket 0 = %d, want 2", s.Buckets[0])
	}
}

// TestHistogramMergeProperty is the mergeability property: observations
// split across k independent histograms, snapshotted and merged, must
// equal the single histogram that saw the whole stream — bucket for
// bucket and sum for sum. This is what makes per-shard histograms
// exposable as one metric.
func TestHistogramMergeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		k := 2 + rng.Intn(6)
		parts := make([]Histogram, k)
		var whole Histogram
		n := 100 + rng.Intn(900)
		for i := 0; i < n; i++ {
			// Spread across the full bucket range, including overflow.
			d := time.Duration(rng.Int63n(1 << uint(2+rng.Intn(45))))
			whole.Observe(d)
			parts[rng.Intn(k)].Observe(d)
		}
		var merged HistogramSnapshot
		for i := range parts {
			merged.Merge(parts[i].Snapshot())
		}
		want := whole.Snapshot()
		if merged != want {
			t.Fatalf("trial %d (k=%d, n=%d): merged snapshot differs from single-stream\nmerged %+v\nwhole  %+v",
				trial, k, n, merged, want)
		}
	}
}

func TestHistogramQuantileAndMean(t *testing.T) {
	var h Histogram
	if got := h.Snapshot(); got.Mean() != 0 || got.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report zero mean and quantiles")
	}
	// 100 observations at ~1µs, 1 at ~1ms: p50 stays in the µs bucket,
	// p100 reaches the ms bucket.
	for i := 0; i < 100; i++ {
		h.Observe(time.Microsecond)
	}
	h.Observe(time.Millisecond)
	s := h.Snapshot()
	if q := s.Quantile(0.5); q < 512*time.Nanosecond || q > 2*time.Microsecond {
		t.Errorf("p50 = %v, want ~1µs bucket bound", q)
	}
	if q := s.Quantile(1); q < 512*time.Microsecond || q > 2*time.Millisecond {
		t.Errorf("p100 = %v, want ~1ms bucket bound", q)
	}
	if m := s.Mean(); m < 5*time.Microsecond || m > 15*time.Microsecond {
		t.Errorf("mean = %v, want ~11µs", m)
	}
}

// BenchmarkHistogramObserve prices one latency observation (a 2-CPU Xeon
// reads ~15 ns).
func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	d := time.Duration(0)
	for b.Loop() {
		h.Observe(d)
		d += 37
	}
}
