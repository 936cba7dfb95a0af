package scan

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"arbloop/internal/cex"
	"arbloop/internal/strategy"
)

// recordingStrategy wraps a strategy and records, as loopKey, every
// loop it is asked to optimize.
type recordingStrategy struct {
	inner strategy.Strategy
	mu    sync.Mutex
	loops []string
}

func (c *recordingStrategy) Name() string { return c.inner.Name() }

func (c *recordingStrategy) Optimize(ctx context.Context, l *strategy.Loop, pm strategy.PriceMap) (strategy.Result, error) {
	c.mu.Lock()
	c.loops = append(c.loops, loopKey(l))
	c.mu.Unlock()
	return c.inner.Optimize(ctx, l, pm)
}

// take returns the loops optimized since the last take, sorted, and
// clears the record.
func (c *recordingStrategy) take() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.loops
	c.loops = nil
	slices.Sort(out)
	return out
}

// loopKey names a loop by its token cycle and its pools: two loops can
// share a token cycle through parallel pools.
func loopKey(l *strategy.Loop) string {
	var b strings.Builder
	b.WriteString(l.String())
	for i := range l.Len() {
		b.WriteString(" ")
		b.WriteString(l.Hop(i).Pool.ID)
	}
	return b.String()
}

// TestRunDeltaConvexEquivalence drives the sharded delta path,
// scanning from its captured baseline, with the convex strategy over
// random dirty subsets and asserts (a) delta reports are identical to
// full scans of the same state, and (b) each delta scan calls Optimize
// exactly once for each of its LoopsReoptimized loops and for no other.
// Runs under -race in CI, covering concurrent solves sharing the
// workspace pool.
func TestRunDeltaConvexEquivalence(t *testing.T) {
	pools, prices := deltaMarket(t)
	src := cex.NewStatic(prices)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(97))

	for _, cfg := range []Config{
		{Shards: 1, Parallelism: 1},
		{Shards: 4, Parallelism: 4},
	} {
		recording := &recordingStrategy{inner: strategy.ConvexStrategy{}}
		cfg.Strategy = recording
		st := NewDelta(cfg)
		state := pools
		capture, err := st.Scan(ctx, state, nil, src, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(recording.take()); got != capture.LoopsDetected {
			t.Errorf("shards=%d: capture optimized %d loops, detected %d", cfg.Shards, got, capture.LoopsDetected)
		}
		for round := 0; round < 4; round++ {
			state = perturb(t, rng, state, 1+rng.Intn(8))
			delta, err := st.Scan(ctx, state, nil, src, nil)
			if err != nil {
				t.Fatal(err)
			}
			calls := recording.take()
			distinct := len(slices.Compact(slices.Clone(calls)))
			if len(calls) != delta.LoopsReoptimized || distinct != len(calls) {
				t.Errorf("shards=%d round %d: %d Optimize calls on %d distinct loops, LoopsReoptimized %d",
					cfg.Shards, round, len(calls), distinct, delta.LoopsReoptimized)
			}
			full, err := Run(ctx, rebuild(t, state), src, cfg)
			if err != nil {
				t.Fatal(err)
			}
			recording.take()
			requireSameReport(t, delta, full)
			if delta.LoopsReused == 0 {
				t.Errorf("shards=%d round %d: delta path never reused a loop", cfg.Shards, round)
			}
		}
	}
}

// TestRunDeltaConvexPriceMoveWarmStarts: on a delta scan from the
// captured baseline, a moved CEX price re-optimizes exactly the detected
// loops holding the token — each once, and no other loop, since every
// loop's reserves are clean.
func TestRunDeltaConvexPriceMoveWarmStarts(t *testing.T) {
	pools, prices := deltaMarket(t)
	ctx := context.Background()
	recording := &recordingStrategy{inner: strategy.ConvexStrategy{}}
	cfg := Config{Strategy: recording, Shards: 2, Parallelism: 1}
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
	recording.take()
	rep2, err := st.Scan(ctx, rebuild(t, pools), nil, cex.NewStatic(moved), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := recording.take()

	// Every detected loop is ranked (no MinProfitUSD, no TopK, no
	// failures), so the full report lists the loops that hold tok.
	full, err := Run(ctx, rebuild(t, pools), cex.NewStatic(moved), Config{Strategy: recording.inner})
	if err != nil {
		t.Fatal(err)
	}
	if full.Failed != 0 || len(full.Results) != full.LoopsDetected {
		t.Fatalf("full scan ranked %d of %d loops (%d failed)", len(full.Results), full.LoopsDetected, full.Failed)
	}
	var want []string
	for _, r := range full.Results {
		if r.Loop.HasToken(tok) {
			want = append(want, loopKey(r.Loop))
		}
	}
	slices.Sort(want)
	if len(want) == 0 || len(want) == full.LoopsDetected {
		t.Fatalf("%d of %d loops hold %s; the test needs some, not all", len(want), full.LoopsDetected, tok)
	}
	if !slices.Equal(got, want) {
		t.Errorf("moved %s re-optimized %d loops %v, want the %d holding it %v", tok, len(got), got, len(want), want)
	}
	if rep2.LoopsReoptimized != len(want) {
		t.Errorf("LoopsReoptimized = %d, want %d", rep2.LoopsReoptimized, len(want))
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
