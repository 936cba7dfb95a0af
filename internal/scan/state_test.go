package scan

import (
	"context"
	"math/rand"
	"testing"

	"arbloop/internal/amm"
	"arbloop/internal/cex"
	"arbloop/internal/strategy"
)

// TestRunDeltaStateEquivalence is the acceptance property test over
// the one delta state: for random dirty subsets, delta reports are
// identical to full scans of the same state, and a scan counts as
// rescanning the state (ShardsScanned 1) whenever a loop re-oriented or
// re-optimized, as the capture always does.
func TestRunDeltaStateEquivalence(t *testing.T) {
	pools, prices := deltaMarket(t)
	src := cex.NewStatic(prices)
	ctx := context.Background()

	for _, seed := range []int64{101, 104} {
		cfg := Config{}
		rng := rand.New(rand.NewSource(seed))
		st := NewDelta(cfg)
		first, err := st.Scan(ctx, pools, nil, src)
		if err != nil {
			t.Fatal(err)
		}
		if first.ShardsScanned != 1 {
			t.Errorf("seed %d: capture scanned %d states, want 1", seed, first.ShardsScanned)
		}
		state := pools
		for round := 0; round < 6; round++ {
			state = perturb(t, rng, state, 1+rng.Intn(len(state)/10))
			delta, err := st.Scan(ctx, state, nil, src)
			if err != nil {
				t.Fatal(err)
			}
			full, err := Run(ctx, rebuild(t, state), src, cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireSameReport(t, delta, full)
			if delta.LoopsReoptimized+delta.LoopsReused != delta.LoopsDetected {
				t.Fatalf("seed %d round %d: counters do not partition: %d + %d != %d",
					seed, round, delta.LoopsReoptimized, delta.LoopsReused, delta.LoopsDetected)
			}
			if delta.LoopsReoptimized == 0 || delta.ShardsScanned != 1 {
				t.Fatalf("seed %d round %d: re-optimized %d loops, ShardsScanned = %d; want some and 1",
					seed, round, delta.LoopsReoptimized, delta.ShardsScanned)
			}
		}
		if s := st.Stats(); s.DeltaScans != 6 || s.Shards != 1 || s.ShardsScanned != 7 {
			t.Errorf("seed %d: stats = %+v, want 6 delta scans, 1 state rescanned 7 times", seed, s)
		}
	}
}

// nullStrategy is an allocation-free optimizer used to measure the
// dispatch overhead of the fan-out in isolation.
type nullStrategy struct{}

func (nullStrategy) Name() string { return "Null" }
func (nullStrategy) Optimize(context.Context, *strategy.Loop, strategy.PriceMap) (strategy.Result, error) {
	return strategy.Result{}, nil
}

// TestOptimizeIntoZeroAllocPerLoop asserts the chunked fan-out adds zero
// allocations per dispatched loop on the single-worker (inline) path,
// which Run takes at parallelism 1.
func TestOptimizeIntoZeroAllocPerLoop(t *testing.T) {
	pools, prices := deltaMarket(t)
	src := cex.NewStatic(prices)
	ctx := context.Background()
	d, err := detect(ctx, Canonicalize(pools), src, Config{}.Resolve())
	if err != nil {
		t.Fatal(err)
	}
	jobs := allJobs(len(d.loops))
	out := make([]Result, len(d.loops))
	cfg := Config{Strategy: nullStrategy{}, Parallelism: 1}.Resolve()
	allocs := testing.AllocsPerRun(20, func() {
		optimizeInto(ctx, d.loops, d.prices, jobs, out, cfg)
	})
	if allocs != 0 {
		t.Errorf("fan-out allocates %.1f per scan over %d loops, want 0", allocs, len(jobs))
	}
}

// TestRunDeltaSteadyStateAllocBudget pins the allocation diet: a
// steady-state delta scan (topology warm, a few dirty pools, static
// prices) must stay within a small fixed allocation budget regardless of
// market size — no graph rebuild, no fingerprint hash, no per-cycle or
// per-pool scratch allocation. The budget is the fixed per-scan cost
// (price-map fetch, ranked results slice, copy-on-write commit) plus
// the dirty loops' own optimizer work with the null strategy.
func TestRunDeltaSteadyStateAllocBudget(t *testing.T) {
	pools, prices := deltaMarket(t)
	src := cex.NewStatic(prices)
	ctx := context.Background()
	// Telemetry stays enabled: the budget must hold with every stage
	// histogram and dirtiness EMA live.
	cfg := Config{Strategy: nullStrategy{}, Parallelism: 1, Metrics: NewMetrics()}
	st := NewDelta(cfg)
	if _, err := st.Scan(ctx, pools, nil, src); err != nil {
		t.Fatal(err)
	}

	// Clean steady state: identical reserves, identical prices.
	state := rebuild(t, pools)
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := st.Scan(ctx, state, nil, src); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("clean delta scan: %.1f allocs", allocs)
	const cleanBudget = 64
	if allocs > cleanBudget {
		t.Errorf("clean delta scan allocates %.1f, budget %d", allocs, cleanBudget)
	}

	// Dirty steady state: one pool trades per scan. The extra cost over
	// clean is the copy-on-write state, copied into the spare the previous
	// commit retired, and the affected loops' own work — a Loop each, for
	// a strategy without a kernel — still a fixed budget, not O(market).
	// Every state is built before the measured window.
	rng := rand.New(rand.NewSource(47))
	const runs = 50
	states := make([][]*amm.Pool, runs+1) // AllocsPerRun runs f runs+1 times
	for i := range states {
		state = perturb(t, rng, state, 1)
		states[i] = state
	}
	next, reopt := 0, 0
	dirtyAllocs := testing.AllocsPerRun(runs, func() {
		rep, err := st.Scan(ctx, states[next], nil, src)
		if err != nil {
			t.Fatal(err)
		}
		next++
		reopt += rep.LoopsReoptimized
	})
	t.Logf("1-dirty-pool delta scan: %.1f allocs (%.1f loops reoptimized)", dirtyAllocs, float64(reopt)/(runs+1))
	// The scans read 14.0 at 2.2 loops re-optimized; a second Loop built
	// per re-optimized loop reads 21.0.
	const dirtyBudget = 18
	if dirtyAllocs > dirtyBudget {
		t.Errorf("dirty delta scan allocates %.1f, budget %d", dirtyAllocs, dirtyBudget)
	}
}
