// Benchmarks regenerating every figure and table of the paper, plus the
// ablations called out in DESIGN.md §4. Run with:
//
//	go test -bench=. -benchmem
//
// Naming follows the per-experiment index: BenchmarkFigNN regenerates the
// data behind figure NN; BenchmarkTableTN the scalar tables; the
// BenchmarkAblation* family compares design alternatives.
package arbloop_test

import (
	"context"
	"math/big"
	"sync"
	"testing"

	"arbloop/internal/amm"
	"arbloop/internal/bot"
	"arbloop/internal/cex"
	"arbloop/internal/chain"
	"arbloop/internal/convexopt"
	"arbloop/internal/cycles"
	"arbloop/internal/experiments"
	"arbloop/internal/market"
	"arbloop/internal/pathfind"
	"arbloop/internal/source"
	"arbloop/internal/strategy"
)

// BenchmarkFig01 samples the Fig. 1 profit curve (Section V loop).
func BenchmarkFig01(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1(121); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig02 runs the P_x sweep behind Fig. 2 (per-start profits and
// the MaxMax envelope; 101 price points as in the paper).
func BenchmarkFig02(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2(0.2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig03 regenerates Fig. 3 (MaxMax vs ConvexOptimization over
// the P_x sweep): 101 convex solves.
func BenchmarkFig03(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(0.2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig04 regenerates Fig. 4 (convex net-token composition).
func BenchmarkFig04(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(0.2); err != nil {
			b.Fatal(err)
		}
	}
}

// pipelineFixture caches the §VI pipelines so the per-figure benchmarks
// measure figure regeneration (strategies + extraction), not repeated
// snapshot generation.
var pipelineFixture struct {
	once sync.Once
	len3 *experiments.PipelineResult
	len4 *experiments.PipelineResult
	err  error
}

func pipelines(b *testing.B) (*experiments.PipelineResult, *experiments.PipelineResult) {
	b.Helper()
	pipelineFixture.once.Do(func() {
		pipelineFixture.len3, pipelineFixture.err = experiments.RunPipeline(experiments.PipelineConfig{LoopLen: 3})
		if pipelineFixture.err != nil {
			return
		}
		pipelineFixture.len4, pipelineFixture.err = experiments.RunPipeline(experiments.PipelineConfig{LoopLen: 4})
	})
	if pipelineFixture.err != nil {
		b.Fatal(pipelineFixture.err)
	}
	return pipelineFixture.len3, pipelineFixture.len4
}

// BenchmarkFig05Pipeline regenerates Fig. 5's underlying data: the full
// length-3 empirical pipeline (detection + all strategies on 123 loops).
func BenchmarkFig05Pipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunPipeline(experiments.PipelineConfig{LoopLen: 3})
		if err != nil {
			b.Fatal(err)
		}
		if pts := experiments.Fig5(res); len(pts) == 0 {
			b.Fatal("no points")
		}
	}
}

// BenchmarkFig06 extracts the MaxPrice-vs-MaxMax scatter from the cached
// pipeline.
func BenchmarkFig06(b *testing.B) {
	len3, _ := pipelines(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pts := experiments.Fig6(len3); len(pts) == 0 {
			b.Fatal("no points")
		}
	}
}

// BenchmarkFig07 extracts the Convex-vs-MaxMax scatter.
func BenchmarkFig07(b *testing.B) {
	len3, _ := pipelines(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pts := experiments.Fig7(len3); len(pts) == 0 {
			b.Fatal("no points")
		}
	}
}

// BenchmarkFig08 extracts the net-token comparison rows.
func BenchmarkFig08(b *testing.B) {
	len3, _ := pipelines(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := experiments.Fig8(len3); len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFig09 extracts the length-4 Traditional-vs-Convex scatter.
func BenchmarkFig09(b *testing.B) {
	_, len4 := pipelines(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pts := experiments.Fig9(len4); len(pts) == 0 {
			b.Fatal("no points")
		}
	}
}

// BenchmarkFig10 extracts the length-4 MaxMax-vs-Convex scatter.
func BenchmarkFig10(b *testing.B) {
	_, len4 := pipelines(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pts := experiments.Fig10(len4); len(pts) == 0 {
			b.Fatal("no points")
		}
	}
}

// BenchmarkTableT1 recomputes the Section V worked example.
func BenchmarkTableT1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableT1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableT2 regenerates the §VI graph statistics (snapshot,
// filters, loop counts).
func BenchmarkTableT2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableT2(market.DefaultGeneratorConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableT3MaxMaxLen10 measures MaxMax on a length-10 loop (§VII:
// milliseconds level).
func BenchmarkTableT3MaxMaxLen10(b *testing.B) {
	loop, prices, err := experiments.SyntheticLoop(10)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := strategy.MaxMax(loop, prices); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableT3ConvexLen10 measures the convex strategy on a
// length-10 loop (§VII's slow column; the exact solve is not slow).
func BenchmarkTableT3ConvexLen10(b *testing.B) {
	loop, prices, err := experiments.SyntheticLoop(10)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := strategy.Convex(loop, prices); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableT3Scaling regenerates the full runtime table.
func BenchmarkTableT3Scaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableT3([]int{3, 6, 10}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §4) ---

func ablationLoop(b *testing.B) (*strategy.Loop, strategy.PriceMap) {
	b.Helper()
	loop, prices, err := experiments.SyntheticLoop(5)
	if err != nil {
		b.Fatal(err)
	}
	return loop, prices
}

// BenchmarkAblationOptimizerClosedForm: Δ* via the Möbius closed form.
func BenchmarkAblationOptimizerClosedForm(b *testing.B) {
	loop, _ := ablationLoop(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := strategy.OptimalInputClosedForm(loop); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationOptimizerBisection: Δ* via bisection on F'(Δ)=1, the
// method the paper describes in §III.
func BenchmarkAblationOptimizerBisection(b *testing.B) {
	loop, _ := ablationLoop(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := strategy.OptimalInputBisection(loop); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationOptimizerGolden: Δ* via golden-section maximization.
func BenchmarkAblationOptimizerGolden(b *testing.B) {
	loop, _ := ablationLoop(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := strategy.OptimalInputGolden(loop); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationProblem7 solves the equality-constrained problem (7),
// which reduces to the single-start closed form.
func BenchmarkAblationProblem7(b *testing.B) {
	loop, prices := ablationLoop(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := strategy.MaxMax(loop, prices); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationProblem8 solves the relaxed problem (8) exactly; the
// paper's theory says it can only do better, at a runtime cost this pair
// of benchmarks quantifies.
func BenchmarkAblationProblem8(b *testing.B) {
	loop, prices := ablationLoop(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := strategy.Convex(loop, prices); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Convex solver paths (`make bench-convex`) ---
//
// The BenchmarkConvex* family compares the ways one problem-(8) solve can
// run: the barrier method (convexopt.Minimize: closure constraints,
// O(n³) Cholesky) on the problem and interior start
// experiments.StageBarrier stages, and the strategy's exact solve
// (strategy.Convex: a KKT-certified closed form, pooled scratch), plain
// and through ConvexWarm — the delta-scan entry point, which ignores its
// previous result.

func benchmarkConvexGeneric(b *testing.B, length int) {
	loop, prices, err := experiments.SyntheticLoop(length)
	if err != nil {
		b.Fatal(err)
	}
	p, x0, err := experiments.StageBarrier(loop, prices)
	if err != nil {
		b.Fatal(err)
	}
	if x0 == nil {
		b.Fatalf("length-%d synthetic loop has no interior start", length)
	}
	prob := p.Generic()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := convexopt.Minimize(prob, x0, experiments.BarrierOptions); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkConvexStructured(b *testing.B, length int) {
	loop, prices, err := experiments.SyntheticLoop(length)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := strategy.Convex(loop, prices); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConvexGenericLen3(b *testing.B) {
	benchmarkConvexGeneric(b, 3)
}

func BenchmarkConvexStructuredLen3(b *testing.B) {
	benchmarkConvexStructured(b, 3)
}

func BenchmarkConvexGenericLen10(b *testing.B) {
	benchmarkConvexGeneric(b, 10)
}

func BenchmarkConvexStructuredLen10(b *testing.B) {
	benchmarkConvexStructured(b, 10)
}

func BenchmarkConvexWarmLen3(b *testing.B) {
	loop, prices, err := experiments.SyntheticLoop(3)
	if err != nil {
		b.Fatal(err)
	}
	prev, err := strategy.Convex(loop, prices)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := strategy.ConvexWarm(loop, prices, &prev); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCycleDFS enumerates length-3 cycles by bounded DFS.
func BenchmarkAblationCycleDFS(b *testing.B) {
	len3, _ := pipelines(b)
	g := len3.Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cycles.Enumerate(g, 3, 3, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCycleJohnson enumerates length-≤3 circuits with
// Johnson's algorithm.
func BenchmarkAblationCycleJohnson(b *testing.B) {
	len3, _ := pipelines(b)
	g := len3.Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cycles.Johnson(g, 3, true, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCycleBellmanFord finds one arbitrage loop with
// Bellman–Ford–Moore (the just-in-time detection of related work).
func BenchmarkAblationCycleBellmanFord(b *testing.B) {
	len3, _ := pipelines(b)
	g := len3.Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cycles.BellmanFordMoore(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSwapAnalytic measures the float64 swap evaluation.
func BenchmarkAblationSwapAnalytic(b *testing.B) {
	loop, _ := ablationLoop(b)
	pool := loop.Hop(0).Pool
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pool.AmountOut(pool.Token0, 25); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSwapExactPair measures the exact big.Int pair swap the
// chain simulator uses.
func BenchmarkAblationSwapExactPair(b *testing.B) {
	rin := big.NewInt(1_000_000_000)
	rout := big.NewInt(2_000_000_000)
	in := big.NewInt(25_000_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := amm.GetAmountOut(in, rin, rout, amm.DefaultFeeBps); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extension experiments (EXPERIMENTS.md "Extensions") ---

// BenchmarkExtGapSweep regenerates the Convex−MaxMax gap sweep.
func BenchmarkExtGapSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExtGapSweep(59); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtGapRandom regenerates the random-loop gap study.
func BenchmarkExtGapRandom(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExtGapRandom(100, 20230901); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtRisky compares the risk-free and shorting-allowed optima on
// the cached empirical pipeline.
func BenchmarkExtRisky(b *testing.B) {
	len3, _ := pipelines(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExtRisky(len3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtBotDecay runs the full 20-block bot-convergence experiment
// (detection + optimization + atomic execution per block).
func BenchmarkExtBotDecay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExtBotDecay(20, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtSteadyState runs the bot against continuous retail flow.
func BenchmarkExtSteadyState(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExtSteadyState(10, 10, 0.01, 42); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Order-routing substrate (related work [8]) ---

// BenchmarkRoutingBestRoute finds the best WETH→WBTC route (≤ 3 hops) on
// the calibrated 51-token graph.
func BenchmarkRoutingBestRoute(b *testing.B) {
	len3, _ := pipelines(b)
	g := len3.Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pathfind.BestRoute(g, "WETH", "WBTC", 10, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRoutingOptimalSplit water-fills an input across the top WETH→
// WBTC routes.
func BenchmarkRoutingOptimalSplit(b *testing.B) {
	len3, _ := pipelines(b)
	routes, err := pathfind.AllRoutes(len3.Graph, "WETH", "WBTC", 10, 3)
	if err != nil {
		b.Fatal(err)
	}
	k := 4
	if len(routes) < k {
		k = len(routes)
	}
	maps := make([]amm.Mobius, k)
	for i := 0; i < k; i++ {
		maps[i] = routes[i].Map
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pathfind.OptimalSplit(maps, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Bot execution-mode ablation ---

func botForBench(b *testing.B, reoptimize bool) *bot.Bot {
	b.Helper()
	snap, err := market.Generate(market.DefaultGeneratorConfig())
	if err != nil {
		b.Fatal(err)
	}
	filtered := snap.FilterPools(30_000, 100)
	state := chain.NewState(0)
	if err := source.MirrorToChain(state, filtered, 1_000_000); err != nil {
		b.Fatal(err)
	}
	engine, err := bot.New(state, cex.NewStatic(filtered.PricesUSD), bot.Config{
		MaxExecutionsPerBlock: 3,
		MinProfitUSD:          0.05,
		Reoptimize:            reoptimize,
	})
	if err != nil {
		b.Fatal(err)
	}
	return engine
}

// BenchmarkAblationBotNaive measures one bot block in batch mode (plans
// computed once against pre-block state).
func BenchmarkAblationBotNaive(b *testing.B) {
	engine := botForBench(b, false)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Step(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBotReoptimize measures one bot block with sequential
// re-detection after each execution (no stale plans, ~3× the detection
// work).
func BenchmarkAblationBotReoptimize(b *testing.B) {
	engine := botForBench(b, true)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Step(ctx); err != nil {
			b.Fatal(err)
		}
	}
}
