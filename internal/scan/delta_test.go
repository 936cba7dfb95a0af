package scan

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"arbloop/internal/amm"
	"arbloop/internal/cex"
	"arbloop/internal/market"
	"arbloop/internal/source"
	"arbloop/internal/strategy"
)

// deltaMarket builds the §VI synthetic market as mutable pool values plus
// its CEX price table.
func deltaMarket(t *testing.T) ([]*amm.Pool, map[string]float64) {
	t.Helper()
	snap, err := market.Generate(market.DefaultGeneratorConfig())
	if err != nil {
		t.Fatal(err)
	}
	filtered := snap.FilterPools(30_000, 100)
	pools, err := source.FromSnapshot(filtered).Pools(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return pools, filtered.PricesUSD
}

// rebuild returns fresh pool objects with the same values — what a real
// PoolSource hands out on every poll (never the same pointers).
func rebuild(t *testing.T, pools []*amm.Pool) []*amm.Pool {
	t.Helper()
	out := make([]*amm.Pool, len(pools))
	for i, p := range pools {
		np, err := amm.NewPool(p.ID, p.Token0, p.Token1, p.Reserve0, p.Reserve1, p.Fee)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = np
	}
	return out
}

// perturb nudges the reserves of n randomly chosen pools, returning a
// fresh slice (clean pools are also fresh objects with equal values).
func perturb(t *testing.T, rng *rand.Rand, pools []*amm.Pool, n int) []*amm.Pool {
	t.Helper()
	out := rebuild(t, pools)
	for _, i := range rng.Perm(len(out))[:n] {
		p := out[i]
		np, err := amm.NewPool(p.ID, p.Token0, p.Token1,
			p.Reserve0*(0.9+0.2*rng.Float64()), p.Reserve1*(0.9+0.2*rng.Float64()), p.Fee)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = np
	}
	return out
}

// requireSameReport asserts a delta report is identical to a full report
// over the same state — everything except the delta-path bookkeeping
// (TopologyCacheHit, LoopsReoptimized, LoopsReused). Plans compare bit
// for bit.
func requireSameReport(t *testing.T, delta, full Report) {
	t.Helper()
	if delta.Strategy != full.Strategy || delta.Parallelism != full.Parallelism ||
		delta.Tokens != full.Tokens || delta.Pools != full.Pools ||
		delta.CyclesExamined != full.CyclesExamined || delta.LoopsDetected != full.LoopsDetected ||
		delta.Failed != full.Failed {
		t.Fatalf("report headers differ:\ndelta %+v\nfull  %+v", delta, full)
	}
	if len(delta.Results) != len(full.Results) {
		t.Fatalf("results: delta %d != full %d", len(delta.Results), len(full.Results))
	}
	for i := range delta.Results {
		d, f := delta.Results[i], full.Results[i]
		if d.Index != f.Index {
			t.Fatalf("result %d: index delta %d != full %d", i, d.Index, f.Index)
		}
		if d.Loop.String() != f.Loop.String() {
			t.Fatalf("result %d: loop delta %s != full %s", i, d.Loop, f.Loop)
		}
		dr, fr := d.Result, f.Result
		if dr.Strategy != fr.Strategy || dr.StartToken != fr.StartToken ||
			dr.Input != fr.Input || dr.Monetized != fr.Monetized {
			t.Fatalf("result %d differs:\ndelta %+v\nfull  %+v", i, dr, fr)
		}
		if !sameBits(dr.Plan.Inputs, fr.Plan.Inputs) || !sameBits(dr.Plan.Outputs, fr.Plan.Outputs) {
			t.Fatalf("result %d: plans differ:\ndelta %+v\nfull  %+v", i, dr.Plan, fr.Plan)
		}
		if len(dr.NetTokens) != len(fr.NetTokens) {
			t.Fatalf("result %d: net tokens delta %d != full %d", i, len(dr.NetTokens), len(fr.NetTokens))
		}
		for tok, v := range fr.NetTokens {
			if dr.NetTokens[tok] != v {
				t.Fatalf("result %d: net[%s] delta %g != full %g", i, tok, dr.NetTokens[tok], v)
			}
		}
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func TestRunDeltaFirstScanIsFullCapture(t *testing.T) {
	pools, prices := deltaMarket(t)
	src := cex.NewStatic(prices)
	ctx := context.Background()
	st := NewDelta(Config{})

	delta, err := st.Scan(ctx, pools, nil, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(ctx, rebuild(t, pools), src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameReport(t, delta, full)
	if delta.LoopsReoptimized != delta.LoopsDetected || delta.LoopsReused != 0 {
		t.Errorf("first delta scan reoptimized %d / reused %d, want full capture",
			delta.LoopsReoptimized, delta.LoopsReused)
	}
	if s := st.Stats(); s.FullScans != 1 || s.DeltaScans != 0 {
		t.Errorf("stats = %+v, want one full scan", s)
	}
}

// TestRunDeltaEquivalenceRandomDirty is the core property test: for
// every registered strategy, at one shard and at several, at loop length
// 3 and at lengths 3–4, over rounds of random ≤10% dirty subsets, the
// delta report must be identical to a fresh full scan of the same state,
// plans included, while re-optimizing only the affected loops.
func TestRunDeltaEquivalenceRandomDirty(t *testing.T) {
	pools, prices := deltaMarket(t)
	src := cex.NewStatic(prices)
	ctx := context.Background()

	for _, name := range strategy.Names() {
		strat, _ := strategy.Lookup(name)
		for _, cfg := range []Config{
			{Strategy: strat, Shards: 1},
			{Strategy: strat, Shards: 3, MinProfitUSD: 1, TopK: 10},
			{Strategy: strat, Shards: 1, MinLen: 3, MaxLen: 4, MinProfitUSD: 1, TopK: 10},
			{Strategy: strat, Shards: 3, MinLen: 3, MaxLen: 4},
		} {
			rng := rand.New(rand.NewSource(7))
			st := NewDelta(cfg)
			if _, err := st.Scan(ctx, pools, nil, src, nil); err != nil {
				t.Fatal(err)
			}
			state := pools
			sawPartial := false
			for round := 0; round < 8; round++ {
				dirtyN := 1 + rng.Intn(len(state)/10)
				state = perturb(t, rng, state, dirtyN)

				delta, err := st.Scan(ctx, state, nil, src, nil)
				if err != nil {
					t.Fatal(err)
				}
				full, err := Run(ctx, rebuild(t, state), src, cfg)
				if err != nil {
					t.Fatal(err)
				}
				requireSameReport(t, delta, full)
				if delta.LoopsReoptimized+delta.LoopsReused != delta.LoopsDetected {
					t.Fatalf("%s %+v: counters do not partition: %d + %d != %d", name, cfg,
						delta.LoopsReoptimized, delta.LoopsReused, delta.LoopsDetected)
				}
				if delta.LoopsReoptimized < delta.LoopsDetected {
					sawPartial = true
				}
			}
			if !sawPartial {
				t.Errorf("%s %+v: no round reused any loop — delta path never engaged", name, cfg)
			}
			if s := st.Stats(); s.DeltaScans != 8 {
				t.Errorf("%s %+v: stats = %+v, want 8 delta scans", name, cfg, s)
			}
		}
	}
}

// TestRunDeltaSmallDirtySetReoptimizesFew pins the acceptance criterion:
// a reserve-only update dirtying ≤10% of pools re-runs Optimize only for
// loops touching a dirty pool.
func TestRunDeltaSmallDirtySetReoptimizesFew(t *testing.T) {
	pools, prices := deltaMarket(t)
	src := cex.NewStatic(prices)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	st := NewDelta(Config{})
	if _, err := st.Scan(ctx, pools, nil, src, nil); err != nil {
		t.Fatal(err)
	}

	dirtyN := len(pools) / 10
	state := perturb(t, rng, pools, dirtyN)
	delta, err := st.Scan(ctx, state, nil, src, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Count the loops a dirty pool actually touches: the delta scan must
	// re-optimize exactly those (no price moved in this test).
	dirty := make(map[string]bool)
	for i, p := range state {
		if p.Reserve0 != pools[i].Reserve0 || p.Reserve1 != pools[i].Reserve1 {
			dirty[p.ID] = true
		}
	}
	full, err := Run(ctx, rebuild(t, state), src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	affected := 0
	for _, r := range full.Results {
		touched := false
		for _, h := range r.Loop.Hops() {
			if dirty[h.Pool.ID] {
				touched = true
				break
			}
		}
		if touched {
			affected++
		}
	}
	if delta.LoopsReoptimized > delta.LoopsDetected/2 {
		t.Errorf("10%% dirty pools re-optimized %d of %d loops — delta path not engaging",
			delta.LoopsReoptimized, delta.LoopsDetected)
	}
	if delta.LoopsReoptimized < affected {
		t.Errorf("re-optimized %d loops but %d ranked loops touch dirty pools", delta.LoopsReoptimized, affected)
	}
}

func TestRunDeltaPriceMoveReoptimizesTouchedLoops(t *testing.T) {
	pools, prices := deltaMarket(t)
	ctx := context.Background()
	st := NewDelta(Config{})
	if _, err := st.Scan(ctx, pools, nil, cex.NewStatic(prices), nil); err != nil {
		t.Fatal(err)
	}

	// Same reserves, one moved CEX price: only loops holding the token
	// re-optimize, and the report matches a full scan at the new prices.
	moved := make(map[string]float64, len(prices))
	for k, v := range prices {
		moved[k] = v
	}
	moved["WETH"] *= 1.05
	delta, err := st.Scan(ctx, rebuild(t, pools), nil, cex.NewStatic(moved), nil)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(ctx, rebuild(t, pools), cex.NewStatic(moved), Config{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameReport(t, delta, full)
	if delta.LoopsReoptimized == 0 {
		t.Error("moved price re-optimized nothing")
	}
	if delta.LoopsReused == 0 {
		t.Error("moved price re-optimized everything — token index not used")
	}
}

func TestRunDeltaTopologyChangeFallsBack(t *testing.T) {
	pools, prices := deltaMarket(t)
	src := cex.NewStatic(prices)
	ctx := context.Background()
	st := NewDelta(Config{})
	if _, err := st.Scan(ctx, pools, nil, src, nil); err != nil {
		t.Fatal(err)
	}

	grown := append(rebuild(t, pools), amm.MustNewPool("zz-new", "WETH", "USDC", 500, 900_000, amm.DefaultFee))
	delta, err := st.Scan(ctx, grown, nil, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(ctx, rebuild(t, grown), src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameReport(t, delta, full)
	if s := st.Stats(); s.FullScans != 2 {
		t.Errorf("topology change did not fall back to a full scan: %+v", s)
	}

	// And the next reserve-only update delta-scans against the new topology.
	rng := rand.New(rand.NewSource(11))
	next := perturb(t, rng, grown, 3)
	delta2, err := st.Scan(ctx, next, nil, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if delta2.LoopsReused == 0 {
		t.Error("delta path did not resume after topology fallback")
	}
}

// TestRunDeltaPermutedPoolsNoDirty proves canonicalization end to end: a
// source returning the same pools in a different order is a no-op update
// — cache hit, zero re-optimizations, identical report.
func TestRunDeltaPermutedPoolsNoDirty(t *testing.T) {
	pools, prices := deltaMarket(t)
	src := cex.NewStatic(prices)
	ctx := context.Background()
	cache := NewCache(0)
	cfg := Config{Cache: cache}
	st := NewDelta(cfg)
	first, err := st.Scan(ctx, pools, nil, src, nil)
	if err != nil {
		t.Fatal(err)
	}

	shuffled := rebuild(t, pools)
	rand.New(rand.NewSource(5)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	second, err := st.Scan(ctx, shuffled, nil, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSameReport(t, second, first)
	if second.LoopsReoptimized != 0 || second.LoopsReused != second.LoopsDetected {
		t.Errorf("permutation re-optimized %d loops, want 0", second.LoopsReoptimized)
	}
	if !second.TopologyCacheHit {
		t.Error("permutation missed the topology cache")
	}
	// The delta path carries its own topology reference; the shared LRU
	// must hold exactly the one canonical entry (no permutation thrash).
	if s := cache.Stats(); s.Entries != 1 {
		t.Errorf("cache stats = %+v, want exactly 1 entry", s)
	}
}

// TestRunPermutedPoolsCacheHit is the full-scan half of the same
// guarantee (the PR 2 regression: permutations thrashed the cache).
func TestRunPermutedPoolsCacheHit(t *testing.T) {
	pools, prices := deltaMarket(t)
	src := cex.NewStatic(prices)
	ctx := context.Background()
	cfg := Config{Cache: NewCache(0)}
	first, err := Run(ctx, pools, src, cfg)
	if err != nil {
		t.Fatal(err)
	}

	shuffled := rebuild(t, pools)
	rand.New(rand.NewSource(9)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	second, err := Run(ctx, shuffled, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !second.TopologyCacheHit {
		t.Error("permuted pool order missed the topology cache")
	}
	requireSameReport(t, second, first)
}

func TestRunDeltaHintOnlyWidens(t *testing.T) {
	pools, prices := deltaMarket(t)
	src := cex.NewStatic(prices)
	ctx := context.Background()
	st := NewDelta(Config{})
	if _, err := st.Scan(ctx, pools, nil, src, nil); err != nil {
		t.Fatal(err)
	}

	// A hint naming a clean pool forces its loops to re-optimize (widening
	// is allowed) but cannot change the report.
	hint := []string{pools[0].ID, "no-such-pool"}
	delta, err := st.Scan(ctx, rebuild(t, pools), hint, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(ctx, rebuild(t, pools), src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameReport(t, delta, full)
}

// TestDeltaConcurrentScansMatchFull: scanners sharing one Delta snapshot,
// diff against and commit over each other's baselines, and those
// baselines share captured entries by pointer. A scan that wrote through
// a shared entry or entry slice would corrupt a baseline another scan is
// reading. Every report must still equal a full scan of its own state.
func TestDeltaConcurrentScansMatchFull(t *testing.T) {
	pools, prices := deltaMarket(t)
	src := cex.NewStatic(prices)
	ctx := context.Background()
	const scanners, states = 4, 40

	for _, cfg := range []Config{
		{Strategy: strategy.MaxMaxStrategy{}, TopK: 20, Shards: 3},
		{Strategy: strategy.ConvexStrategy{}, MinLen: 4, MaxLen: 4, Shards: 2},
	} {
		rng := rand.New(rand.NewSource(int64(41 + cfg.Shards)))
		state := make([][]*amm.Pool, states)
		for i := range state {
			state[i] = perturb(t, rng, pools, 1+rng.Intn(len(pools)/10))
		}
		st := NewDelta(cfg)
		if _, err := st.Scan(ctx, pools, nil, src, nil); err != nil {
			t.Fatal(err)
		}

		reps := make([]Report, states)
		errs := make([]error, states)
		var wg sync.WaitGroup
		for g := 0; g < scanners; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := g; i < states; i += scanners {
					reps[i], errs[i] = st.Scan(ctx, state[i], nil, src, nil)
				}
			}()
		}
		wg.Wait()

		for i := range state {
			if errs[i] != nil {
				t.Fatalf("%s state %d: %v", cfg.Strategy.Name(), i, errs[i])
			}
			full, err := Run(ctx, rebuild(t, state[i]), src, cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireSameReport(t, reps[i], full)
		}
		if s := st.Stats(); s.FullScans != 1 || s.DeltaScans != states {
			t.Errorf("%s: stats = %+v, want 1 capture and %d delta scans", cfg.Strategy.Name(), s, states)
		}
	}
}
