package telemetry

import (
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if got := g.Load(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	var f FloatGauge
	f.Set(3.25)
	if got := f.Load(); got != 3.25 {
		t.Fatalf("float gauge = %v, want 3.25", got)
	}
}

// TestZeroAllocUpdates is the core contract: every write-side operation
// the scan hot path performs — counter increment, gauge set, histogram
// observe, EMA update — allocates nothing. The delta scan's ~7-alloc
// budget holds with telemetry enabled because of exactly this.
func TestZeroAllocUpdates(t *testing.T) {
	var c Counter
	if n := testing.AllocsPerRun(100, func() { c.Add(3) }); n != 0 {
		t.Errorf("Counter.Add allocates %.1f, want 0", n)
	}
	var g Gauge
	if n := testing.AllocsPerRun(100, func() { g.Set(9) }); n != 0 {
		t.Errorf("Gauge.Set allocates %.1f, want 0", n)
	}
	var f FloatGauge
	if n := testing.AllocsPerRun(100, func() { f.Set(1.5) }); n != 0 {
		t.Errorf("FloatGauge.Set allocates %.1f, want 0", n)
	}
	var h Histogram
	if n := testing.AllocsPerRun(100, func() { h.Observe(123 * time.Microsecond) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %.1f, want 0", n)
	}
	e := NewEMA(30 * time.Second)
	now := time.Now()
	if n := testing.AllocsPerRun(100, func() {
		now = now.Add(time.Second)
		e.Observe(1, now)
	}); n != 0 {
		t.Errorf("EMA.Observe allocates %.1f, want 0", n)
	}
	alpha := Alpha(time.Second, 30*time.Second)
	if n := testing.AllocsPerRun(100, func() { e.ObserveAlpha(0.5, alpha) }); n != 0 {
		t.Errorf("EMA.ObserveAlpha allocates %.1f, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		now = now.Add(time.Second)
		e.DecayAdd(alpha, now)
	}); n != 0 {
		t.Errorf("EMA.DecayAdd allocates %.1f, want 0", n)
	}
}

// TestConcurrentObserveSnapshot hammers one histogram, one counter, and
// one EMA from writer goroutines while readers snapshot — run under
// -race in CI, this is the data-race coverage for the read/write split.
func TestConcurrentObserveSnapshot(t *testing.T) {
	var (
		h  Histogram
		c  Counter
		wg sync.WaitGroup
	)
	e := NewEMA(time.Second)
	const writers, perWriter = 8, 2000
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			now := time.Now()
			for i := 0; i < perWriter; i++ {
				h.Observe(time.Duration(seed*i) * time.Nanosecond)
				c.Inc()
				e.Observe(float64(i%2), now)
				now = now.Add(time.Millisecond)
			}
		}(w + 1)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			_ = h.Snapshot()
			_ = c.Load()
			_ = e.Value()
		}
	}()
	wg.Wait()
	<-done
	s := h.Snapshot()
	if got := s.Count(); got != writers*perWriter {
		t.Fatalf("histogram count = %d, want %d", got, writers*perWriter)
	}
	if got := c.Load(); got != writers*perWriter {
		t.Fatalf("counter = %d, want %d", got, writers*perWriter)
	}
}

// BenchmarkCounterInc prices one counter update on the hot path (a
// 2-CPU Xeon reads ~7 ns).
func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	for b.Loop() {
		c.Inc()
	}
}
