package telemetry

import (
	"math"
	"testing"
	"time"
)

// TestEMAPriming: the first DefaultPrimeSamples observations average
// arithmetically, so an early estimate is the plain mean, not a
// first-sample-anchored EMA.
func TestEMAPriming(t *testing.T) {
	e := NewEMA(time.Minute)
	now := time.Now()
	vals := []float64{10, 20, 30, 40}
	sum := 0.0
	for i, v := range vals {
		e.Observe(v, now.Add(time.Duration(i)*time.Second))
		sum += v
		want := sum / float64(i+1)
		if got := e.Value(); math.Abs(got-want) > 1e-12 {
			t.Fatalf("after %d primed samples: value = %v, want running mean %v", i+1, got, want)
		}
	}
	if e.Count() != uint64(len(vals)) {
		t.Fatalf("count = %d, want %d", e.Count(), len(vals))
	}
}

// TestEMADynamicAlpha: past priming, the weight of an update derives
// from elapsed wall time — a sample after one time constant moves the
// estimate by 1−e^−1 of the gap, and a sample after a tiny gap barely
// moves it.
func TestEMADynamicAlpha(t *testing.T) {
	tau := 10 * time.Second
	e := NewEMA(tau)
	now := time.Now()
	// Prime fully at value 0.
	for i := 0; i < DefaultPrimeSamples; i++ {
		e.Observe(0, now)
	}

	// One observation of 1.0 after exactly tau: alpha = 1 − e^−1.
	now = now.Add(tau)
	e.Observe(1, now)
	want := 1 - math.Exp(-1)
	if got := e.Value(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("after one tau gap: value = %v, want %v", got, want)
	}

	// A near-zero gap must barely move the estimate.
	before := e.Value()
	e.Observe(0, now.Add(time.Nanosecond))
	if got := e.Value(); math.Abs(got-before) > 1e-6 {
		t.Fatalf("near-zero gap moved value %v -> %v", before, got)
	}

	// A very long gap forgets history almost completely.
	e.Observe(5, now.Add(100*tau))
	if got := e.Value(); math.Abs(got-5) > 1e-3 {
		t.Fatalf("after 100 tau gap: value = %v, want ~5", got)
	}
}

func TestEMAObserveAlphaMatchesObserve(t *testing.T) {
	tau := 30 * time.Second
	dt := 2 * time.Second
	a, b := NewEMA(tau), NewEMA(tau)
	now := time.Now()
	alpha := Alpha(dt, tau)
	vals := []float64{1, 0, 0, 1, 1, 1, 0, 1, 0.5, 0.25, 1, 0}
	for i, v := range vals {
		now = now.Add(dt)
		a.Observe(v, now)
		b.ObserveAlpha(v, alpha)
		if i >= DefaultPrimeSamples {
			if got, want := b.Value(), a.Value(); math.Abs(got-want) > 1e-9 {
				t.Fatalf("sample %d: ObserveAlpha value %v != Observe value %v", i, got, want)
			}
		}
	}
}

func TestAlphaBounds(t *testing.T) {
	if a := Alpha(0, time.Second); a != 0 {
		t.Errorf("Alpha(0) = %v, want 0", a)
	}
	if a := Alpha(-time.Second, time.Second); a != 0 {
		t.Errorf("Alpha(neg) = %v, want 0", a)
	}
	if a := Alpha(time.Hour, time.Second); a <= 0.99 || a > 1 {
		t.Errorf("Alpha(huge) = %v, want ~1", a)
	}
}

func TestEMAInitDefaults(t *testing.T) {
	var e EMA
	e.Init(0) // tau <= 0 selects one second
	now := time.Now()
	for i := 0; i < DefaultPrimeSamples+1; i++ {
		e.Observe(1, now.Add(time.Duration(i)*time.Second))
	}
	if got := e.Value(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("constant stream: value = %v, want 1", got)
	}
}

// TestEMADecayAddTelescopes: skipping the event-less sweeps and decaying
// over the whole gap at the next event (DecayAdd) produces exactly the
// value a dense per-interval sweep of the 0/1 indicator would — the run
// of zeros telescopes into one exponential factor.
func TestEMADecayAddTelescopes(t *testing.T) {
	tau := 30 * time.Second
	dt := 2 * time.Second
	alpha := Alpha(dt, tau)
	start := time.Now()

	// Dense reference: v ← (1−a)v + a·x every interval, from 0, unprimed.
	events := []bool{true, false, false, false, true, true, false, true, false, false}
	ref := 0.0
	sparse := NewEMA(tau)
	for i, dirty := range events {
		now := start.Add(time.Duration(i+1) * dt)
		x := 0.0
		if dirty {
			x = 1
		}
		ref += alpha * (x - ref)
		if dirty {
			sparse.DecayAdd(alpha, now)
		}
		if got := sparse.DecayedValue(now); math.Abs(got-ref) > 1e-9 {
			t.Fatalf("interval %d: DecayAdd value %v, dense sweep %v", i, got, ref)
		}
	}
}

// TestEMADecayAddBounds: the indicator estimate stays in [0, 1] and
// decays toward 0 across quiet gaps.
func TestEMADecayAddBounds(t *testing.T) {
	tau := 10 * time.Second
	e := NewEMA(tau)
	now := time.Now()
	if got := e.DecayedValue(now); got != 0 {
		t.Fatalf("pre-event value = %v, want 0", got)
	}
	// Saturate: many events with a huge alpha.
	for i := 0; i < 50; i++ {
		now = now.Add(time.Millisecond)
		e.DecayAdd(0.9, now)
	}
	if got := e.DecayedValue(now); got > 1 || got < 0.89 {
		t.Fatalf("saturated value = %v, want within (0.89, 1]", got)
	}
	// One time constant of silence decays by e^-1.
	sat := e.DecayedValue(now)
	if got, want := e.DecayedValue(now.Add(tau)), sat*math.Exp(-1); math.Abs(got-want) > 1e-9 {
		t.Fatalf("after tau quiet: value = %v, want %v", got, want)
	}
	if got := e.DecayedValue(now.Add(100 * tau)); got > 1e-9 {
		t.Fatalf("after 100 tau quiet: value = %v, want ~0", got)
	}
}

// BenchmarkEMAObserveAlpha prices one EMA update under a
// caller-computed alpha (a 2-CPU Xeon reads ~20 ns).
func BenchmarkEMAObserveAlpha(b *testing.B) {
	e := NewEMA(time.Second)
	x := 0.0
	for b.Loop() {
		e.ObserveAlpha(x, 0.1)
		x = 1 - x
	}
}
