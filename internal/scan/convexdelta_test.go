package scan

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"

	"arbloop/internal/cex"
	"arbloop/internal/strategy"
)

// countingConvex wraps ConvexStrategy and counts cold vs warm optimize
// calls. The counters live behind pointers so every copy of the value
// shares them.
type countingConvex struct {
	inner      strategy.ConvexStrategy
	cold, warm *atomic.Int64
}

func newCountingConvex() countingConvex {
	return countingConvex{cold: new(atomic.Int64), warm: new(atomic.Int64)}
}

func (c countingConvex) Name() string { return "CountingConvex" }

func (c countingConvex) Optimize(ctx context.Context, l *strategy.Loop, pm strategy.PriceMap) (strategy.Result, error) {
	c.cold.Add(1)
	return c.inner.Optimize(ctx, l, pm)
}

func (c countingConvex) OptimizeWarm(ctx context.Context, l *strategy.Loop, pm strategy.PriceMap, prev *strategy.Result) (strategy.Result, error) {
	c.warm.Add(1)
	return c.inner.OptimizeWarm(ctx, l, pm, prev)
}

// TestRunDeltaConvexWarmStartEquivalence drives the sharded delta path
// with the convex strategy over random dirty subsets and asserts (a)
// delta reports are identical to full scans of the same state, and (b)
// dirty loops actually re-optimize through the warm-start entry point.
// Runs under -race in CI, covering concurrent solves sharing the
// workspace pool.
func TestRunDeltaConvexWarmStartEquivalence(t *testing.T) {
	pools, prices := deltaMarket(t)
	src := cex.NewStatic(prices)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(97))

	for _, cfg := range []Config{
		{Shards: 1, Parallelism: 1},
		{Shards: 4, Parallelism: 4},
	} {
		counting := newCountingConvex()
		cfg.Strategy = counting
		st := NewDelta(cfg)
		state := pools
		if _, err := st.Scan(ctx, state, nil, src, nil); err != nil { // capture
			t.Fatal(err)
		}
		coldAfterCapture := counting.cold.Load()
		for round := 0; round < 4; round++ {
			state = perturb(t, rng, state, 1+rng.Intn(8))
			delta, err := st.Scan(ctx, state, nil, src, nil)
			if err != nil {
				t.Fatal(err)
			}
			full, err := Run(ctx, rebuild(t, state), src, cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireSameReport(t, delta, full)
			if delta.LoopsReused == 0 {
				t.Errorf("shards=%d round %d: delta path never reused a loop", cfg.Shards, round)
			}
		}
		if counting.warm.Load() == 0 {
			t.Errorf("shards=%d: no re-optimization went through OptimizeWarm", cfg.Shards)
		}
		// Full scans (the captures and the comparison runs) cold-start;
		// delta re-optimizations of same-orientation dirty loops must not.
		t.Logf("shards=%d: %d cold (capture) + %d cold (delta) / %d warm calls",
			cfg.Shards, coldAfterCapture, counting.cold.Load()-coldAfterCapture, counting.warm.Load())
	}
}

// TestRunDeltaConvexPriceMoveWarmStarts: a moved CEX price re-optimizes
// exactly the loops holding the token — through the warm-start path,
// since the loops themselves are clean.
func TestRunDeltaConvexPriceMoveWarmStarts(t *testing.T) {
	pools, prices := deltaMarket(t)
	ctx := context.Background()
	counting := newCountingConvex()
	cfg := Config{Strategy: counting, Shards: 2, Parallelism: 1}
	st := NewDelta(cfg)

	src := cex.NewStatic(prices)
	rep, err := st.Scan(ctx, pools, nil, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) == 0 {
		t.Fatal("no loops detected")
	}
	tok := rep.Results[0].Loop.Token(0)
	moved := make(map[string]float64, len(prices))
	for k, v := range prices {
		moved[k] = v
	}
	moved[tok] *= 1.02
	before := counting.warm.Load()
	rep2, err := st.Scan(ctx, rebuild(t, pools), nil, cex.NewStatic(moved), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.LoopsReoptimized == 0 {
		t.Fatal("moved price re-optimized nothing")
	}
	if got := counting.warm.Load() - before; got != int64(rep2.LoopsReoptimized) {
		t.Errorf("%d loops re-optimized but %d warm calls — price-move path not warm-starting", rep2.LoopsReoptimized, got)
	}
}

// TestRunDeltaConvexAllocBudget is the acceptance guard: a steady-state
// delta scan with the convex strategy stays within a bounded, pinned
// allocation budget — the exact solve's fixed per-result cost — and the
// dirty scans really run the convex solve.
func TestRunDeltaConvexAllocBudget(t *testing.T) {
	pools, prices := deltaMarket(t)
	src := cex.NewStatic(prices)
	ctx := context.Background()

	// Metrics on: the convex budget is measured instrumented too.
	cfg := Config{Strategy: strategy.ConvexStrategy{}, Parallelism: 1, Shards: 4, Metrics: NewMetrics()}
	st := NewDelta(cfg)
	state := rebuild(t, pools)
	if _, err := st.Scan(ctx, state, nil, src, nil); err != nil {
		t.Fatal(err)
	}
	clean := testing.AllocsPerRun(20, func() {
		if _, err := st.Scan(ctx, state, nil, src, nil); err != nil {
			t.Fatal(err)
		}
	})
	rng := rand.New(rand.NewSource(63))
	var reoptTotal int
	solves := strategy.Telemetry().Solves.Load()
	dirty := testing.AllocsPerRun(20, func() {
		state = perturb(t, rng, state, 1)
		rep, err := st.Scan(ctx, state, nil, src, nil)
		if err != nil {
			t.Fatal(err)
		}
		reoptTotal += rep.LoopsReoptimized
	})
	solved := strategy.Telemetry().Solves.Load() - solves
	reopt := float64(reoptTotal) / 21 // AllocsPerRun runs f N+1 times
	t.Logf("exact: clean %.1f allocs, 1-dirty-pool %.1f allocs (%.1f loops reoptimized, %d convex solves)",
		clean, dirty, reopt, solved)

	// Clean steady state: no solves at all — the same fixed budget as any
	// other strategy (price fetch, ranked slice, no commit).
	const cleanBudget = 32
	if clean > cleanBudget {
		t.Errorf("clean convex delta scan allocates %.1f, budget %d", clean, cleanBudget)
	}
	// Dirty scans pay the perturb/rebuild harness (~1 alloc per pool in
	// the market) plus a small fixed cost per re-optimized loop.
	perLoop := 24.0
	budget := 300 + perLoop*reopt
	if dirty > budget {
		t.Errorf("1-dirty-pool convex delta scan allocates %.1f, budget %.0f (%.1f loops reoptimized)",
			dirty, budget, reopt)
	}

	// The budgets only mean something if the dirty scans solved: a
	// re-optimization that silently stopped reaching the convex solve
	// would pass them for free.
	if solved == 0 {
		t.Errorf("dirty scans re-optimized %.1f loops/scan but ran no convex solve", reopt)
	}
}
