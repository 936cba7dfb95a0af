package bot

import (
	"context"
	"math"
	"math/big"
	"runtime"
	"testing"

	"arbloop/internal/cex"
	"arbloop/internal/chain"
	"arbloop/internal/market"
	"arbloop/internal/strategy"
)

const scale = 1_000_000

// paperChain mirrors the Section V pools onto a chain state.
func paperChain(t *testing.T) *chain.State {
	t.Helper()
	s := chain.NewState(1_693_526_400)
	add := func(id, t0, t1 string, r0, r1 int64) {
		t.Helper()
		if err := s.AddPool(id, t0, t1, big.NewInt(r0*scale), big.NewInt(r1*scale), 30); err != nil {
			t.Fatal(err)
		}
	}
	add("p1", "X", "Y", 100, 200)
	add("p2", "Y", "Z", 300, 200)
	add("p3", "Z", "X", 200, 400)
	return s
}

func paperOracle() *cex.Static {
	return cex.NewStatic(map[string]float64{"X": 2, "Y": 10.2, "Z": 20})
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, paperOracle(), Config{}); err == nil {
		t.Error("nil state: want error")
	}
	if _, err := New(paperChain(t), nil, Config{}); err == nil {
		t.Error("nil oracle: want error")
	}
	// Any Strategy implementation is accepted — even MaxPrice, which the
	// paper shows is unreliable but is no longer a hard-coded enum case.
	if _, err := New(paperChain(t), paperOracle(), Config{Strategy: strategy.MaxPriceStrategy{}}); err != nil {
		t.Errorf("pluggable strategy rejected: %v", err)
	}
}

func TestBotCapturesPaperOpportunity(t *testing.T) {
	b, err := New(paperChain(t), paperOracle(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	report, err := b.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if report.LoopsDetected != 1 {
		t.Fatalf("loops detected = %d, want 1", report.LoopsDetected)
	}
	if len(report.Executions) != 1 {
		t.Fatalf("executions = %d", len(report.Executions))
	}
	e := report.Executions[0]
	if e.Reverted {
		t.Fatalf("execution reverted: %v", e.RevertReason)
	}
	// Paper: MaxMax = 205.6$ on this loop; integer rounding shaves a hair.
	if math.Abs(e.PredictedUSD-205.59) > 0.5 {
		t.Errorf("predicted = %.2f$, want ≈ 205.6$", e.PredictedUSD)
	}
	if math.Abs(e.RealizedUSD-e.PredictedUSD) > 1.0 {
		t.Errorf("realized %.2f$ deviates from predicted %.2f$", e.RealizedUSD, e.PredictedUSD)
	}
	if report.Height != 1 {
		t.Errorf("height = %d, want 1", report.Height)
	}
}

func TestBotConsumesOpportunityOverBlocks(t *testing.T) {
	b, err := New(paperChain(t), paperOracle(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := b.Run(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	first := reports[0].TotalRealizedUSD()
	if first < 100 {
		t.Fatalf("first block realized %.2f$, want the big capture", first)
	}
	// After the first capture the loop is priced out: later blocks find
	// nothing above the dust threshold.
	for i, r := range reports[1:] {
		if got := r.TotalRealizedUSD(); got > 1.0 {
			t.Errorf("block %d still realized %.2f$", i+2, got)
		}
	}
	st := b.Stats()
	if st.Blocks != 5 || st.Executed < 1 {
		t.Errorf("stats = %+v", st)
	}
	if math.Abs(st.RealizedUSD-first) > 2 {
		t.Errorf("lifetime realized %.2f$ vs first block %.2f$", st.RealizedUSD, first)
	}
}

func TestBotConvexStrategy(t *testing.T) {
	b, err := New(paperChain(t), paperOracle(), Config{Strategy: strategy.ConvexStrategy{}})
	if err != nil {
		t.Fatal(err)
	}
	report, err := b.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Executions) != 1 {
		t.Fatalf("executions = %d", len(report.Executions))
	}
	e := report.Executions[0]
	if e.Reverted {
		t.Fatalf("convex plan reverted: %v", e.RevertReason)
	}
	// Paper: Convex = 206.1$ — slightly above MaxMax.
	if math.Abs(e.PredictedUSD-206.15) > 0.5 {
		t.Errorf("predicted = %.2f$, want ≈ 206.1$", e.PredictedUSD)
	}
	if math.Abs(e.RealizedUSD-e.PredictedUSD) > 1.5 {
		t.Errorf("realized %.2f$ vs predicted %.2f$", e.RealizedUSD, e.PredictedUSD)
	}
}

func TestBotMinProfitFilter(t *testing.T) {
	b, err := New(paperChain(t), paperOracle(), Config{MinProfitUSD: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	report, err := b.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if report.LoopsDetected != 0 || len(report.Executions) != 0 {
		t.Errorf("dust filter failed: %+v", report)
	}
}

func TestBotEmptyChain(t *testing.T) {
	b, err := New(chain.NewState(0), paperOracle(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Step(context.Background()); err == nil {
		t.Error("empty chain: want error")
	}
}

func TestBotContextCancellation(t *testing.T) {
	b, err := New(paperChain(t), paperOracle(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Run(ctx, 3); err == nil {
		t.Error("cancelled context: want error")
	}
}

// TestBotDeltaSurvivesGOMAXPROCSChange: the bot binds its delta engine
// at New, so a GOMAXPROCS change between blocks must not force a full
// re-capture.
func TestBotDeltaSurvivesGOMAXPROCSChange(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(procs) })
	b, err := New(paperChain(t), paperOracle(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{procs, 1, 4} {
		runtime.GOMAXPROCS(p)
		if _, err := b.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if s := b.delta.Stats(); s.FullScans != 1 || s.DeltaScans != 2 || s.Shards != 1 {
		t.Errorf("stats = %+v, want 1 full + 2 delta scans over the one state", s)
	}
}

// TestBotOnSyntheticMarket runs the engine over the calibrated §VI
// market mirrored onto the chain, executing multiple plans per block.
func TestBotOnSyntheticMarket(t *testing.T) {
	snap, err := market.Generate(market.DefaultGeneratorConfig())
	if err != nil {
		t.Fatal(err)
	}
	filtered := snap.FilterPools(30_000, 100)
	state := chain.NewState(1_693_526_400)
	for _, p := range filtered.Pools {
		r0 := new(big.Int).SetInt64(int64(p.Reserve0 * scale))
		r1 := new(big.Int).SetInt64(int64(p.Reserve1 * scale))
		if err := state.AddPool(p.ID, p.Token0, p.Token1, r0, r1, 30); err != nil {
			t.Fatal(err)
		}
	}
	oracle := cex.NewStatic(filtered.PricesUSD)
	b, err := New(state, oracle, Config{MaxExecutionsPerBlock: 3, MinProfitUSD: 0.5})
	if err != nil {
		t.Fatal(err)
	}

	reports, err := b.Run(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if reports[0].LoopsDetected < 50 {
		t.Errorf("first block detected %d loops, want many (123 in the calibrated market)", reports[0].LoopsDetected)
	}
	// Realized profit declines as the bot arbitrages the market toward
	// consistency.
	firstHalf, secondHalf := 0.0, 0.0
	for i, r := range reports {
		if i < 5 {
			firstHalf += r.TotalRealizedUSD()
		} else {
			secondHalf += r.TotalRealizedUSD()
		}
	}
	if firstHalf <= 0 {
		t.Fatal("bot realized nothing on a market with 123 arbitrage loops")
	}
	if secondHalf > firstHalf {
		t.Errorf("profit should decline: first half %.2f$, second half %.2f$", firstHalf, secondHalf)
	}
	st := b.Stats()
	if st.Executed == 0 {
		t.Error("no executions recorded")
	}
	t.Logf("10 blocks: %d executions, %d reverts, realized $%.2f", st.Executed, st.Reverted, st.RealizedUSD)
}

// TestBotInterference: executing several plans in the same block makes
// later plans stale when they share pools; the atomic revert protects
// them, and realized ≤ predicted.
func TestBotInterference(t *testing.T) {
	// Two loops sharing pool pXY: both profitable individually.
	s := chain.NewState(0)
	add := func(id, t0, t1 string, r0, r1 int64) {
		t.Helper()
		if err := s.AddPool(id, t0, t1, big.NewInt(r0*scale), big.NewInt(r1*scale), 30); err != nil {
			t.Fatal(err)
		}
	}
	add("pXY", "X", "Y", 100, 220)
	add("pYZ", "Y", "Z", 300, 300)
	add("pZX", "Z", "X", 300, 300)
	add("pYW", "Y", "W", 200, 200)
	add("pWX", "W", "X", 200, 200)
	oracle := cex.NewStatic(map[string]float64{"X": 5, "Y": 5, "Z": 5, "W": 5})

	b, err := New(s, oracle, Config{MaxExecutionsPerBlock: 4, MinProfitUSD: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	report, err := b.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Executions) < 2 {
		t.Skipf("only %d executable loops; interference needs ≥ 2", len(report.Executions))
	}
	// The first (best) plan executes at its prediction; later plans see
	// moved pools — they either revert or realize less than predicted.
	first := report.Executions[0]
	if first.Reverted {
		t.Fatalf("best plan reverted: %v", first.RevertReason)
	}
	for _, e := range report.Executions[1:] {
		if !e.Reverted && e.RealizedUSD > e.PredictedUSD+0.01 {
			t.Errorf("stale plan realized %.4f$ above prediction %.4f$", e.RealizedUSD, e.PredictedUSD)
		}
	}
}

// TestBotReoptimizeAvoidsStalePlans compares the naive batch mode (plans
// computed once against pre-block state) with the sequential reoptimize
// mode on the calibrated market: reoptimize must commit every execution
// it attempts and realize at least as much in the first block.
func TestBotReoptimizeAvoidsStalePlans(t *testing.T) {
	build := func(reopt bool) (*Bot, error) {
		snap, err := market.Generate(market.DefaultGeneratorConfig())
		if err != nil {
			return nil, err
		}
		filtered := snap.FilterPools(30_000, 100)
		state := chain.NewState(0)
		for _, p := range filtered.Pools {
			r0 := new(big.Int).SetInt64(int64(p.Reserve0 * scale))
			r1 := new(big.Int).SetInt64(int64(p.Reserve1 * scale))
			if err := state.AddPool(p.ID, p.Token0, p.Token1, r0, r1, 30); err != nil {
				return nil, err
			}
		}
		return New(state, cex.NewStatic(filtered.PricesUSD), Config{
			MaxExecutionsPerBlock: 5,
			MinProfitUSD:          0.05,
			Reoptimize:            reopt,
		})
	}

	naive, err := build(false)
	if err != nil {
		t.Fatal(err)
	}
	reopt, err := build(true)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	naiveTotal, reoptTotal := 0.0, 0.0
	for i := 0; i < 4; i++ {
		rn, err := naive.Step(ctx)
		if err != nil {
			t.Fatal(err)
		}
		naiveTotal += rn.TotalRealizedUSD()
		rr, err := reopt.Step(ctx)
		if err != nil {
			t.Fatal(err)
		}
		reoptTotal += rr.TotalRealizedUSD()
		for _, e := range rr.Executions {
			if e.Reverted {
				t.Errorf("block %d: reoptimize mode reverted on %s: %v", i+1, e.Loop, e.RevertReason)
			}
			// Every committed plan realizes what it predicted (computed
			// against the exact state it executed on).
			if !e.Reverted && math.Abs(e.RealizedUSD-e.PredictedUSD) > 0.01*(1+e.PredictedUSD) {
				t.Errorf("block %d: realized %.4f vs predicted %.4f", i+1, e.RealizedUSD, e.PredictedUSD)
			}
		}
	}
	if reopt.Stats().Reverted != 0 {
		t.Errorf("reoptimize mode reverted %d times", reopt.Stats().Reverted)
	}
	// Reoptimize can only help (it never wastes an execution slot on a
	// stale plan); allow a tiny tolerance for path dependence.
	if reoptTotal < naiveTotal*0.95 {
		t.Errorf("reoptimize total $%.2f < naive $%.2f", reoptTotal, naiveTotal)
	}
	t.Logf("4 blocks, 5 executions each: naive $%.2f, reoptimize $%.2f", naiveTotal, reoptTotal)
}

func TestBotReoptimizeHeightAdvances(t *testing.T) {
	b, err := New(paperChain(t), paperOracle(), Config{Reoptimize: true})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := b.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := b.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r2.Height != r1.Height+1 {
		t.Errorf("heights %d, %d; want consecutive", r1.Height, r2.Height)
	}
}
