package arbloop_test

import (
	"context"
	"sort"
	"testing"
	"time"

	"arbloop"
	"arbloop/internal/cex"
	"arbloop/internal/scan"
	"arbloop/internal/source"
	"arbloop/internal/strategy"
)

// TestTelemetryScanAllocs is the instrumentation acceptance guard: with
// telemetry enabled (the default), a steady-state delta scan through the
// public API must stay within the same 7-allocation budget the engine
// held before instrumentation existed. Every stage histogram and
// dirtiness EMA is live during the measurement.
func TestTelemetryScanAllocs(t *testing.T) {
	ctx := context.Background()
	market, prices := newMutableMarket(t)
	sc, err := arbloop.NewScanner(market, prices,
		arbloop.WithParallelism(1), arbloop.WithDeltaScans(true))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Metrics() == nil {
		t.Fatal("telemetry should default on")
	}
	w := arbloop.NewWatcher(market)
	u, err := w.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.ScanDelta(ctx, u); err != nil { // warm cache + baseline
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := sc.ScanDelta(ctx, u); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 7
	if allocs > budget {
		t.Errorf("instrumented steady-state delta scan allocates %.1f, budget %d", allocs, budget)
	}
	// The delta path's allocation diet against what every block paid
	// before it: a warm full scan of the same update (graph rebind and
	// every loop re-optimized) must allocate at least 10x as often. A
	// 2-CPU Xeon reads 6 against 1,146.
	full, err := arbloop.NewScanner(market, prices,
		arbloop.WithParallelism(1), arbloop.WithDeltaScans(false))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := full.ScanDelta(ctx, u); err != nil { // warm the topology cache
		t.Fatal(err)
	}
	fullAllocs := testing.AllocsPerRun(20, func() {
		if _, err := full.ScanDelta(ctx, u); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/scan: delta steady state %.0f, warm full %.0f", allocs, fullAllocs)
	if fullAllocs < 10*allocs {
		t.Errorf("steady-state delta scan allocates %.0f against a warm full scan's %.0f (%.1fx), want at least 10x fewer",
			allocs, fullAllocs, fullAllocs/allocs)
	}
	// Prove the metrics were actually live, not silently disabled: every
	// measured scan must have hit the delta path, and the sampled stage
	// timing (1 in scan.StageSample delta scans, plus the always-timed
	// warm-up capture) must have recorded scan totals.
	m := sc.Metrics()
	if got := m.DeltaScans.Load(); got < 21 {
		t.Errorf("DeltaScans = %d after 21+ instrumented scans", got)
	}
	snap := m.ScanTotal.Snapshot()
	if want := uint64(21/scan.StageSample + 1); snap.Count() < want {
		t.Errorf("ScanTotal observed %d scans, want >= %d (sampled)", snap.Count(), want)
	}
}

// TestTelemetryBench holds full instrumentation to less than 2% of a
// steady-state delta scan's time. Under `go test ./...` load a 2-CPU
// Xeon reads −0.8% to 1.7%, most runs 0.6–1.3%; the spread is mostly
// between processes, from where each engine's state lands in memory.
func TestTelemetryBench(t *testing.T) {
	skipWallClockUnderRace(t)
	// Two delta engines over one pool set and one price source, identical
	// but for the Metrics pointer each is bound to at construction. Each
	// captures its own baseline, so the pair carries small
	// allocator-layout and cache-warmth differences on top of the
	// instrumentation writes; the interleaved pairs below absorb that
	// noise.
	ctx := context.Background()
	snap, err := arbloop.GenerateMarket(arbloop.DefaultGeneratorConfig())
	if err != nil {
		t.Fatal(err)
	}
	filtered := snap.FilterPools(30_000, 100)
	pools, err := source.FromSnapshot(filtered).Pools(ctx)
	if err != nil {
		t.Fatal(err)
	}
	src := cex.NewStatic(filtered.PricesUSD)
	cfgOff := scan.Config{Strategy: strategy.MaxMaxStrategy{}, Parallelism: 1}
	cfgOn := cfgOff
	cfgOn.Metrics = scan.NewMetrics()
	plain, instrumented := scan.NewDelta(cfgOff), scan.NewDelta(cfgOn)
	for _, d := range []*scan.Delta{plain, instrumented} {
		if _, err := d.Scan(ctx, pools, nil, src); err != nil { // warm: capture + size metric vectors
			t.Fatal(err)
		}
	}
	// Run adjacent off/on scan pairs and take the MEDIAN of the per-pair
	// differences: scheduler and frequency noise is bursty at a much
	// coarser grain than one ~50µs scan, so adjacent pairs absorb it
	// equally and the median discards the pairs a burst split. The pair
	// order alternates so "second scan runs cache-warm" bias cancels,
	// and the whole block repeats five times with the median block
	// reported — one block's residual noise is ~±1%, too wide against a
	// 2% budget for a CI gate.
	const pairs = 2000
	run := func(d *scan.Delta) float64 {
		start := time.Now()
		if _, err := d.Scan(ctx, pools, nil, src); err != nil {
			t.Fatal(err)
		}
		return time.Since(start).Seconds()
	}
	offs := make([]float64, pairs)
	deltas := make([]float64, pairs)
	block := func() (off, delta float64) {
		for i := 0; i < pairs; i++ {
			if i%2 == 0 {
				offs[i] = run(plain)
				deltas[i] = run(instrumented) - offs[i]
			} else {
				on := run(instrumented)
				offs[i] = run(plain)
				deltas[i] = on - offs[i]
			}
		}
		sort.Float64s(offs)
		sort.Float64s(deltas)
		return offs[pairs/2], deltas[pairs/2]
	}
	blockOffs := make([]float64, 5)
	blockDeltas := make([]float64, 5)
	for b := range blockOffs {
		blockOffs[b], blockDeltas[b] = block()
	}
	sort.Float64s(blockOffs)
	sort.Float64s(blockDeltas)
	mid := len(blockOffs) / 2
	off, on := blockOffs[mid], blockOffs[mid]+blockDeltas[mid]
	overhead := blockDeltas[mid] / blockOffs[mid] * 100
	t.Logf("delta scan: %.2fµs off, %.2fµs on (%.2f%% overhead)", off*1e6, on*1e6, overhead)
	if overhead > 2 {
		t.Errorf("telemetry adds %.2f%% to the steady-state delta scan, budget 2%%", overhead)
	}
}
