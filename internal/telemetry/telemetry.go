// Package telemetry is the dependency-free, zero-allocation metrics
// core behind the block loop's observability spine: atomic counters and
// gauges, fixed-bucket streaming histograms, and dynamic-alpha EMA
// estimators, exported through a Registry in Prometheus text format
// (server /v1/metrics) and expvar (the -pprof listener).
//
// The design constraint that shapes everything here is the delta scan's
// allocation budget: instrumenting the steady-state per-block path must
// add zero allocations (the ~7-alloc AllocsPerRun guards run with
// telemetry enabled). So the write side is built from preallocated
// fixed-size state only — padded atomics, flat bucket arrays, in-place
// EMA folds — and every read is snapshot-on-read: exposition walks the
// live atomics and formats into the response writer, never asking the
// hot path to maintain any export-shaped state.
//
// Updates are wait-free (counters, gauges, histograms) or a single
// uncontended mutex (EMA); none of them take locks shared with readers.
// Registration (Registry.Counter etc.) allocates and is meant for
// startup or topology changes, never the per-block path.
package telemetry

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing event count. It is padded to a
// cache line so slices of counters indexed by shard or worker never
// false-share: two cores bumping adjacent counters would otherwise
// bounce one line between them. The zero value is ready to use.
//
// Counters are shared by address between writers and the exposition
// side; copying one forks its state. Enforced by arblint's nocopy
// analyzer:
//
//arblint:nocopy
type Counter struct {
	v atomic.Uint64
	_ [56]byte // pad to 64 bytes: one counter per cache line
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a settable int64 level (queue depth, active connections).
// The zero value is ready to use. Shared by address; never copy.
//
//arblint:nocopy
type Gauge struct {
	v atomic.Int64
	_ [56]byte
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (negative to decrement).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// FloatGauge is a settable float64 level, stored as IEEE-754 bits behind
// one atomic word so Set/Load never tear. The zero value reads 0.
// Shared by address; never copy.
//
//arblint:nocopy
type FloatGauge struct {
	bits atomic.Uint64
	_    [56]byte
}

// Set stores v.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Load returns the current value.
func (g *FloatGauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }
