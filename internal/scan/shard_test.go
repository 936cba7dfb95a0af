package scan

import (
	"context"
	"math/rand"
	"testing"

	"arbloop/internal/amm"
	"arbloop/internal/cex"
	"arbloop/internal/strategy"
)

// triangle builds a three-pool cycle over the given tokens.
func triangle(t *testing.T, a, b, c, prefix string) []*amm.Pool {
	t.Helper()
	mk := func(id, t0, t1 string) *amm.Pool {
		p, err := amm.NewPool(id, t0, t1, 100, 200, amm.DefaultFee)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	return []*amm.Pool{mk(prefix+"1", a, b), mk(prefix+"2", b, c), mk(prefix+"3", c, a)}
}

// TestShardPlanPartition pins the partition invariants: every cycle is
// owned by exactly one shard, shardOf/localOf agree with the per-shard
// lists, shard loads are near-equal, and per-shard cycle lists are
// ascending (global detection order).
func TestShardPlanPartition(t *testing.T) {
	pools, _ := deltaMarket(t)
	g, top, _, err := enumerateTopology(Canonicalize(pools), Config{MinLen: 3, MaxLen: 3})
	if err != nil {
		t.Fatal(err)
	}
	_ = g
	for _, n := range []int{1, 2, 3, 4, 7, 16, len(top.cycles) + 5} {
		plan := buildShardPlan(top, n)
		if plan.n != n {
			t.Fatalf("plan.n = %d, want %d", plan.n, n)
		}
		seen := make([]bool, len(top.cycles))
		minSize, maxSize := len(top.cycles), 0
		for s, cs := range plan.cycles {
			if len(cs) < minSize {
				minSize = len(cs)
			}
			if len(cs) > maxSize {
				maxSize = len(cs)
			}
			for lo, ci := range cs {
				if seen[ci] {
					t.Fatalf("n=%d: cycle %d owned twice", n, ci)
				}
				seen[ci] = true
				if int(plan.shardOf[ci]) != s || int(plan.localOf[ci]) != lo {
					t.Fatalf("n=%d: cycle %d index mismatch: shardOf=%d localOf=%d, want (%d,%d)",
						n, ci, plan.shardOf[ci], plan.localOf[ci], s, lo)
				}
				if lo > 0 && cs[lo-1] >= ci {
					t.Fatalf("n=%d shard %d: cycles not ascending at %d", n, s, lo)
				}
			}
		}
		for ci, ok := range seen {
			if !ok {
				t.Fatalf("n=%d: cycle %d unowned", n, ci)
			}
		}
		if maxSize-minSize > 1 {
			t.Errorf("n=%d: shard sizes unbalanced: min %d, max %d", n, minSize, maxSize)
		}
	}
}

// TestShardPlanComponentAware: cycles in different connected components
// never share a shard when there are at least as many shards as
// components of comparable size — here two disjoint 3-cycles across 2
// shards.
func TestShardPlanComponentAware(t *testing.T) {
	pools := triangle(t, "A", "B", "C", "p")
	pools = append(pools, triangle(t, "X", "Y", "Z", "q")...)
	g, top, _, err := enumerateTopology(Canonicalize(pools), Config{MinLen: 3, MaxLen: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(top.cycles) != 2 {
		t.Fatalf("expected 2 cycles, got %d", len(top.cycles))
	}
	plan := buildShardPlan(top, 2)
	if plan.shardOf[0] == plan.shardOf[1] {
		t.Errorf("disjoint components share shard %d", plan.shardOf[0])
	}
	_ = g
}

// TestRunDeltaShardedEquivalence is the acceptance property test: for
// random dirty subsets and shard counts {1, 2, 4, 7}, sharded delta
// reports are identical to full scans of the same state, at parallelism
// 1 and >1, with and without a persistent worker pool.
func TestRunDeltaShardedEquivalence(t *testing.T) {
	pools, prices := deltaMarket(t)
	src := cex.NewStatic(prices)
	ctx := context.Background()
	pool := NewWorkers(4)
	defer pool.Close()

	for _, shards := range []int{1, 2, 4, 7} {
		for _, par := range []int{1, 4} {
			cfg := Config{Shards: shards, Parallelism: par}
			if par > 1 {
				cfg.Workers = pool
			}
			rng := rand.New(rand.NewSource(int64(100*shards + par)))
			st := NewDelta(cfg)
			first, err := st.Scan(ctx, pools, nil, src, cfg.Workers)
			if err != nil {
				t.Fatal(err)
			}
			if first.ShardsScanned != shards {
				t.Errorf("shards=%d: capture scanned %d shards, want all", shards, first.ShardsScanned)
			}
			state := pools
			for round := 0; round < 6; round++ {
				state = perturb(t, rng, state, 1+rng.Intn(len(state)/10))
				delta, err := st.Scan(ctx, state, nil, src, cfg.Workers)
				if err != nil {
					t.Fatal(err)
				}
				full, err := Run(ctx, rebuild(t, state), src, cfg)
				if err != nil {
					t.Fatal(err)
				}
				requireSameReport(t, delta, full)
				if delta.LoopsReoptimized+delta.LoopsReused != delta.LoopsDetected {
					t.Fatalf("shards=%d round %d: counters do not partition: %d + %d != %d",
						shards, round, delta.LoopsReoptimized, delta.LoopsReused, delta.LoopsDetected)
				}
				if delta.ShardsScanned < 1 || delta.ShardsScanned > shards {
					t.Fatalf("shards=%d round %d: ShardsScanned = %d out of range",
						shards, round, delta.ShardsScanned)
				}
			}
			if s := st.Stats(); s.DeltaScans != 6 || s.Shards != shards {
				t.Errorf("shards=%d par=%d: stats = %+v, want 6 delta scans over %d shards",
					shards, par, s, shards)
			}
		}
	}
}

// TestRunDeltaShardsScannedSubset: with many shards, a single dirty pool
// must wake only the shards its cycles land in — strictly fewer than the
// total for this market.
func TestRunDeltaShardsScannedSubset(t *testing.T) {
	pools, prices := deltaMarket(t)
	src := cex.NewStatic(prices)
	ctx := context.Background()
	cfg := Config{Shards: 8}
	st := NewDelta(cfg)
	if _, err := st.Scan(ctx, pools, nil, src, nil); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	state := perturb(t, rng, pools, 1)
	rep, err := st.Scan(ctx, state, nil, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ShardsScanned == 0 || rep.ShardsScanned >= 8 {
		t.Errorf("one dirty pool scanned %d of 8 shards", rep.ShardsScanned)
	}
	if s := st.Stats(); s.ShardsScanned != 8+uint64(rep.ShardsScanned) {
		t.Errorf("cumulative ShardsScanned = %d, want %d", s.ShardsScanned, 8+rep.ShardsScanned)
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
// allocations per dispatched loop on the single-worker (inline) path —
// the delta scan's routine case of a handful of jobs.
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
		optimizeInto(ctx, d.loops, d.prices, jobs, out, cfg, nil)
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
	// histogram, dirtiness EMA, and shard wake-up counter live.
	cfg := Config{Strategy: nullStrategy{}, Parallelism: 1, Shards: 4, Metrics: NewMetrics()}
	st := NewDelta(cfg)
	if _, err := st.Scan(ctx, pools, nil, src, nil); err != nil {
		t.Fatal(err)
	}

	// Clean steady state: identical reserves, identical prices.
	state := rebuild(t, pools)
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := st.Scan(ctx, state, nil, src, nil); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("clean delta scan: %.1f allocs", allocs)
	const cleanBudget = 64
	if allocs > cleanBudget {
		t.Errorf("clean delta scan allocates %.1f, budget %d", allocs, cleanBudget)
	}

	// Dirty steady state: one pool trades per scan. The extra cost over
	// clean is the dirty shard's copy-on-write and the affected loops'
	// rebuild — still a fixed budget, not O(market).
	rng := rand.New(rand.NewSource(47))
	dirtyAllocs := testing.AllocsPerRun(50, func() {
		state = perturb(t, rng, state, 1)
		if _, err := st.Scan(ctx, state, nil, src, nil); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("1-dirty-pool delta scan: %.1f allocs (incl. perturb harness)", dirtyAllocs)
	const dirtyBudget = 512
	if dirtyAllocs > dirtyBudget {
		t.Errorf("dirty delta scan allocates %.1f, budget %d", dirtyAllocs, dirtyBudget)
	}
}

// TestWorkersPool exercises the persistent pool: Do waits for all
// invocations, nested/concurrent batches don't deadlock, and Do after
// Close still completes (spawn fallback).
func TestWorkersPool(t *testing.T) {
	w := NewWorkers(3)
	if w.Size() != 3 {
		t.Fatalf("size = %d", w.Size())
	}
	done := make(chan int, 64)
	w.Do(5, func() { done <- 1 })
	if got := len(done); got != 5 {
		t.Fatalf("Do ran %d of 5", got)
	}
	w.Close()
	w.Close() // idempotent
	w.Do(4, func() { done <- 1 })
	if got := len(done); got != 9 {
		t.Fatalf("Do after Close ran %d of 9", got)
	}
	var nilPool *Workers
	nilPool.Do(2, func() { done <- 1 })
	nilPool.Close()
	if got := len(done); got != 11 {
		t.Fatalf("nil pool Do ran %d of 11", got)
	}
}
