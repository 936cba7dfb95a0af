package telemetry

import (
	"math"
	"sync"
	"time"
)

// DefaultPrimeSamples is how many initial observations an EMA averages
// arithmetically before switching to exponential weighting. A raw EMA
// started from its first sample over- or under-shoots for the first
// half-life; priming with the plain running mean gives an unbiased
// early estimate that hands off smoothly once enough history exists.
const DefaultPrimeSamples = 8

// EMA is a streaming exponentially-weighted mean with a *dynamic* alpha:
// instead of a fixed per-sample smoothing factor, the weight of each
// update derives from the wall-clock time elapsed since the previous
// one, alpha = 1 − exp(−dt/τ), so the estimate decays on a time
// constant rather than a sample count. Irregularly spaced observations —
// blocks arriving late, a scan loop that skips coalesced updates — are
// therefore weighted correctly: a sample after a long gap moves the
// estimate more, just as re-averaging the gap would.
//
// The estimator is primed: the first DefaultPrimeSamples observations
// fold in as a plain running mean before exponential weighting takes
// over (see DefaultPrimeSamples).
//
// Observe and Value are safe for concurrent use and allocation-free; an
// EMA embeds its own mutex, so slices of EMAs (one per pool, one per
// loop) update independently. The zero value is unusable — construct
// with Init or NewEMA, which set the time constant. An EMA embeds a
// mutex and is shared by address; never copy one (enforced by arblint's
// nocopy analyzer).
//
//arblint:nocopy
type EMA struct {
	mu    sync.Mutex
	tau   float64 // time constant, seconds
	value float64
	last  int64  // unix nanos of the previous observation
	n     uint64 // observations so far
}

// NewEMA returns an estimator whose weight decays on time constant tau
// (observations older than ~tau contribute e^-1 of their weight).
func NewEMA(tau time.Duration) *EMA {
	e := &EMA{}
	e.Init(tau)
	return e
}

// Init (re)initializes an EMA in place with time constant tau —
// the entry point for EMAs living inside preallocated slices. tau ≤ 0
// selects 1 s. Not safe to call concurrently with Observe.
func (e *EMA) Init(tau time.Duration) {
	if tau <= 0 {
		tau = time.Second
	}
	e.tau = tau.Seconds()
	e.value = 0
	e.last = 0
	e.n = 0
}

// Prime seeds the estimator with a prior estimate v as of time now —
// the restart path, where a recovered value (e.g. from the durable
// opportunity log) stands in for history this process never saw. The
// primed value decays on the normal time constant from now, and the
// arithmetic-mean warm-up is skipped: the prior already embodies many
// observations, so the next Observe weights exponentially. Non-finite
// priors are ignored. Not safe to call concurrently with Observe; call
// it before the estimator goes live.
func (e *EMA) Prime(v float64, now time.Time) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	e.mu.Lock()
	e.value = v
	e.last = now.UnixNano()
	if e.n < DefaultPrimeSamples {
		e.n = DefaultPrimeSamples
	}
	e.mu.Unlock()
}

// Alpha returns the dynamic smoothing factor for a gap of dt against
// time constant tau: 1 − exp(−dt/τ), clamped to [0, 1]. Exported so a
// caller updating many EMAs at the same instant (the per-pool dirtiness
// sweep) can compute it once and fan it out with ObserveAlpha.
func Alpha(dt, tau time.Duration) float64 {
	if dt <= 0 || tau <= 0 {
		return 0
	}
	return 1 - math.Exp(-dt.Seconds()/tau.Seconds())
}

// Observe folds one sample in, weighting it by the time elapsed since
// the previous observation. now is passed in (not read here) so batch
// updates across many EMAs share one clock read.
func (e *EMA) Observe(x float64, now time.Time) {
	nano := now.UnixNano()
	e.mu.Lock()
	e.n++
	switch {
	case e.n <= DefaultPrimeSamples:
		// Priming: plain running mean.
		e.value += (x - e.value) / float64(e.n)
	default:
		dt := float64(nano-e.last) / float64(time.Second)
		if dt < 0 {
			dt = 0
		}
		a := 1 - math.Exp(-dt/e.tau)
		e.value += a * (x - e.value)
	}
	e.last = nano
	e.mu.Unlock()
}

// ObserveAlpha folds one sample in under a caller-computed smoothing
// factor (see Alpha) — the batch path that skips the per-EMA exp when
// many estimators update at one instant. Priming still applies.
func (e *EMA) ObserveAlpha(x, alpha float64) {
	e.mu.Lock()
	e.n++
	if e.n <= DefaultPrimeSamples {
		e.value += (x - e.value) / float64(e.n)
	} else {
		e.value += alpha * (x - e.value)
	}
	e.mu.Unlock()
}

// DecayAdd is the event-driven update for indicator-style EMAs — series
// that are 1 at sparse event instants and implicitly 0 everywhere else
// (a pool trading). Because a run of zero observations
// telescopes to one exponential factor, v·Πexp(−dtₖ/τ) = v·exp(−Δt/τ),
// skipping the zero sweeps entirely and decaying over the whole gap at
// the next event is *exactly* equivalent to sweeping every interval:
//
//	v ← v·exp(−(now−last)/τ) + alpha
//
// where alpha is the sweep-granularity smoothing factor (see Alpha).
// The caller therefore pays one update per *event*, not per event-less
// interval — the difference between O(dirty pools) and O(all pools) per
// scan. Read the estimate back with DecayedValue, which applies the
// zero-run decay since the last event. Priming is skipped: an indicator
// EMA starts at 0 and rises on its first event.
func (e *EMA) DecayAdd(alpha float64, now time.Time) {
	nano := now.UnixNano()
	e.mu.Lock()
	e.n++
	if e.last == 0 {
		e.value = alpha
	} else {
		dt := float64(nano-e.last) / float64(time.Second)
		if dt < 0 {
			dt = 0
		}
		e.value = e.value*math.Exp(-dt/e.tau) + alpha
	}
	if e.value > 1 {
		e.value = 1
	}
	e.last = nano
	e.mu.Unlock()
}

// DecayedValue returns the estimate of a DecayAdd-maintained EMA at
// time now — the stored value decayed across the event-less gap since
// the last event (0 before any event).
func (e *EMA) DecayedValue(now time.Time) float64 {
	nano := now.UnixNano()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.last == 0 {
		return 0
	}
	dt := float64(nano-e.last) / float64(time.Second)
	if dt < 0 {
		dt = 0
	}
	return e.value * math.Exp(-dt/e.tau)
}

// Value returns the current estimate (0 before any observation).
func (e *EMA) Value() float64 {
	e.mu.Lock()
	v := e.value
	e.mu.Unlock()
	return v
}

// Count returns how many observations have folded in.
func (e *EMA) Count() uint64 {
	e.mu.Lock()
	n := e.n
	e.mu.Unlock()
	return n
}
