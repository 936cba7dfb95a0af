package strategy

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"arbloop/internal/amm"
)

// randomProfitableLoop builds a profitable loop of length n with random
// reserves and fees, its price product nudged into [1.02, 1.5], plus
// random CEX prices.
func randomProfitableLoop(t testing.TB, rng *rand.Rand, n int) (*Loop, PriceMap) {
	t.Helper()
	fees := []float64{0, 0.001, 0.003, 0.01, 0.03}
	hops := make([]Hop, n)
	prices := PriceMap{}
	prod := 1.0
	reserves := make([][2]float64, n)
	gammas := make([]float64, n)
	for i := 0; i < n; i++ {
		gammas[i] = 1 - fees[rng.Intn(len(fees))]
		reserves[i] = [2]float64{
			math.Pow(10, 3+3*rng.Float64()),
			math.Pow(10, 3+3*rng.Float64()),
		}
		prod *= gammas[i] * reserves[i][1] / reserves[i][0]
	}
	target := 1.02 + 0.48*rng.Float64()
	reserves[0][1] *= target / prod
	for i := 0; i < n; i++ {
		t0, t1 := fmt.Sprintf("T%d", i), fmt.Sprintf("T%d", (i+1)%n)
		hops[i] = Hop{
			Pool: amm.MustNewPool(fmt.Sprintf("p%d", i), t0, t1,
				reserves[i][0], reserves[i][1], 1-gammas[i]),
			TokenIn: t0,
		}
		prices[t0] = math.Pow(10, -1+3*rng.Float64())
	}
	l, err := NewLoop(hops)
	if err != nil {
		t.Fatal(err)
	}
	return l, prices
}

// TestConvexStructuredMatchesGeneric is the strategy-level equivalence
// property: the structured fast path (Convex) and the dense reference
// solve (convexReference) agree on plan vectors and monetized profit
// within 1e-6 (relative) over random profitable loops of length 2–6 ×
// random fees/reserves/prices.
func TestConvexStructuredMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for n := 2; n <= 6; n++ {
		for trial := 0; trial < 10; trial++ {
			l, prices := randomProfitableLoop(t, rng, n)
			fast, err := Convex(l, prices)
			if err != nil {
				t.Fatalf("n=%d trial %d: structured: %v", n, trial, err)
			}
			gen, err := convexReference(l, prices)
			if err != nil {
				t.Fatalf("n=%d trial %d: reference: %v", n, trial, err)
			}
			scale := 1 + math.Abs(gen.Monetized)
			if d := math.Abs(fast.Monetized - gen.Monetized); d > 1e-6*scale {
				t.Errorf("n=%d trial %d: monetized structured %.12g vs reference %.12g",
					n, trial, fast.Monetized, gen.Monetized)
			}
			// Plan comparison needs rotation-aware alignment: either side
			// may have fallen back to the MaxMax plan, whose result loop
			// is a rotation of l.
			for i := 0; i < n; i++ {
				fa := planInputFor(fast, l.Token(i))
				ga := planInputFor(gen, l.Token(i))
				if d := math.Abs(fa - ga); d > 1e-6*(1+math.Abs(ga)) {
					t.Errorf("n=%d trial %d: input[%s] structured %.12g vs reference %.12g",
						n, trial, l.Token(i), fa, ga)
				}
			}
			// Dominance (§IV): the convex result never loses to MaxMax.
			mm, err := MaxMax(l, prices)
			if err != nil {
				t.Fatal(err)
			}
			if fast.Monetized < mm.Monetized-1e-9*scale {
				t.Errorf("n=%d trial %d: structured %.12g below MaxMax %.12g",
					n, trial, fast.Monetized, mm.Monetized)
			}
		}
	}
}

// planInputFor returns the result's input amount for the hop consuming
// tok, regardless of the result loop's rotation.
func planInputFor(r Result, tok string) float64 {
	for i := 0; i < r.Loop.Len(); i++ {
		if r.Loop.Token(i) == tok {
			return r.Plan.Inputs[i]
		}
	}
	return math.NaN()
}

// nearDegenerateLoop builds a profitable loop whose price product is
// 1 + 2⁻⁵², the next float64 above 1. With unit reserves the MaxMax plan
// is so small that no uniform shrink of it is strictly interior in
// float64 — the regression case for the warm-start failure that used to
// error out of Convex (and, through Strategy.Optimize, fail whole-scan
// loops).
func nearDegenerateLoop(t testing.TB) (*Loop, PriceMap) {
	t.Helper()
	g := 1 - 0.003
	// prod = γ²·(r1out/r1in)·(r2out/r2in) = 1 + 2⁻⁵².
	r2out := (1 + 0x1p-52) / (g * g)
	l, err := NewLoop([]Hop{
		{Pool: amm.MustNewPool("d1", "A", "B", 1, 1, 0.003), TokenIn: "A"},
		{Pool: amm.MustNewPool("d2", "B", "A", 1, r2out, 0.003), TokenIn: "B"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, PriceMap{"A": 2, "B": 3}
}

// TestConvexDegenerateFallsBackToMaxMax is the no-interior regression: a
// profitable but near-degenerate loop must yield the MaxMax plan, not an
// error, on both the structured path and the dense reference — and the
// structured path must fall back before taking a Newton step.
func TestConvexDegenerateFallsBackToMaxMax(t *testing.T) {
	l, prices := nearDegenerateLoop(t)
	profitable, err := l.Profitable()
	if err != nil {
		t.Fatal(err)
	}
	if !profitable {
		t.Fatal("degenerate fixture is not profitable; the regression needs price product > 1")
	}
	// The interior truly is unreachable: this is what made the old code
	// error with "failed to find interior point".
	if x0, err := warmStart(l, prices); err == nil {
		t.Fatalf("fixture has an interior point %v; regression premise gone", x0)
	}
	mm, err := MaxMax(l, prices)
	if err != nil {
		t.Fatal(err)
	}
	tel := Telemetry()
	fallbacks, newton := tel.Fallbacks.Load(), tel.NewtonIters.Load()
	fast, err := Convex(l, prices)
	if err != nil {
		t.Fatalf("Convex on near-degenerate loop: %v", err)
	}
	if got := tel.Fallbacks.Load() - fallbacks; got != 1 {
		t.Errorf("structured solve advanced Fallbacks by %d, want 1", got)
	}
	if got := tel.NewtonIters.Load() - newton; got != 0 {
		t.Errorf("structured solve took %d Newton steps, want 0 (no interior start)", got)
	}
	ref, err := convexReference(l, prices)
	if err != nil {
		t.Fatalf("convexReference on near-degenerate loop: %v", err)
	}
	for _, c := range []struct {
		path string
		res  Result
	}{{"structured", fast}, {"reference", ref}} {
		if c.res.Strategy != NameConvex {
			t.Errorf("%s fallback result strategy = %q", c.path, c.res.Strategy)
		}
		if d := math.Abs(c.res.Monetized - mm.Monetized); d > 1e-12*(1+math.Abs(mm.Monetized)) {
			t.Errorf("%s fallback monetized %g, MaxMax %g", c.path, c.res.Monetized, mm.Monetized)
		}
		if c.res.Monetized < 0 {
			t.Errorf("%s fallback monetized negative: %g", c.path, c.res.Monetized)
		}
	}
}

// TestConvexWarmMatchesCold: warm-starting from the previous optimum (or
// any aligned previous result) yields the same optimum within solver
// tolerance, and ColdStart ignores the hint bit-for-bit.
func TestConvexWarmMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for n := 2; n <= 5; n++ {
		l, prices := randomProfitableLoop(t, rng, n)
		cold, err := Convex(l, prices)
		if err != nil {
			t.Fatal(err)
		}
		// Perturb reserves slightly (a block's worth of trading) and
		// re-solve warm vs cold.
		hops := make([]Hop, n)
		for i := 0; i < n; i++ {
			h := l.Hop(i)
			hops[i] = Hop{
				Pool: amm.MustNewPool(h.Pool.ID, h.Pool.Token0, h.Pool.Token1,
					h.Pool.Reserve0*1.01, h.Pool.Reserve1*0.995, h.Pool.Fee),
				TokenIn: h.TokenIn,
			}
		}
		moved, err := NewLoop(hops)
		if err != nil {
			t.Fatal(err)
		}
		cold2, err := Convex(moved, prices)
		if err != nil {
			t.Fatal(err)
		}
		warm2, err := ConvexWarm(moved, prices, &cold)
		if err != nil {
			t.Fatal(err)
		}
		scale := 1 + math.Abs(cold2.Monetized)
		if d := math.Abs(warm2.Monetized - cold2.Monetized); d > 1e-6*scale {
			t.Errorf("n=%d: warm %.12g vs cold %.12g", n, warm2.Monetized, cold2.Monetized)
		}
		// ColdStart pins bit-reproducibility against the cold solve.
		pinned, err := ConvexStrategy{Options: ConvexOptions{ColdStart: true}}.OptimizeWarm(context.Background(), moved, prices, &cold)
		if err != nil {
			t.Fatal(err)
		}
		if pinned.Monetized != cold2.Monetized {
			t.Errorf("n=%d: ColdStart result differs from cold solve", n)
		}
		// A nil previous result is a plain cold solve.
		nilPrev, err := ConvexWarm(moved, prices, nil)
		if err != nil {
			t.Fatal(err)
		}
		if nilPrev.Monetized != cold2.Monetized {
			t.Errorf("n=%d: nil-prev warm solve differs from cold solve", n)
		}
	}
}

// TestConvexWarmMisalignedPrev: a previous result from an unrelated loop
// (wrong tokens, wrong length) must be ignored, not crash or corrupt.
func TestConvexWarmMisalignedPrev(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l, prices := randomProfitableLoop(t, rng, 3)
	other, otherPrices := randomProfitableLoop(t, rng, 4)
	prevOther, err := Convex(other, otherPrices)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Convex(l, prices)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := ConvexWarm(l, prices, &prevOther)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(warm.Monetized - cold.Monetized); d > 1e-9*(1+math.Abs(cold.Monetized)) {
		t.Errorf("misaligned prev changed the optimum: %g vs %g", warm.Monetized, cold.Monetized)
	}
	// A zero-plan previous result (loop was unprofitable last block) is
	// unusable as an interior start and must fall back cleanly.
	zero := Result{Loop: l, Plan: TradePlan{Inputs: make([]float64, 3), Outputs: make([]float64, 3)}}
	warmZero, err := ConvexWarm(l, prices, &zero)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(warmZero.Monetized - cold.Monetized); d > 1e-9*(1+math.Abs(cold.Monetized)) {
		t.Errorf("zero prev changed the optimum: %g vs %g", warmZero.Monetized, cold.Monetized)
	}
}

// TestConvexStrategyImplementsWarmStarter pins the delta-path contract.
func TestConvexStrategyImplementsWarmStarter(t *testing.T) {
	var s Strategy = ConvexStrategy{}
	ws, ok := s.(WarmStarter)
	if !ok {
		t.Fatal("ConvexStrategy does not implement WarmStarter")
	}
	rng := rand.New(rand.NewSource(9))
	l, prices := randomProfitableLoop(t, rng, 3)
	prev, err := s.Optimize(context.Background(), l, prices)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := ws.OptimizeWarm(context.Background(), l, prices, &prev)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(warm.Monetized - prev.Monetized); d > 1e-6*(1+math.Abs(prev.Monetized)) {
		t.Errorf("OptimizeWarm diverged: %g vs %g", warm.Monetized, prev.Monetized)
	}
}

// TestConvexStructuredAllocBudget pins the fast path's per-solve
// allocation budget: the solver itself is allocation-free after warm-up,
// so a solve pays only for the result it returns (plan slices + net
// map). The dense reference churns hundreds of allocations per solve; the
// pin is what keeps the fast path from regressing toward it.
func TestConvexStructuredAllocBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	l, prices := randomProfitableLoop(t, rng, 4)
	if _, err := Convex(l, prices); err != nil { // warm the pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := Convex(l, prices); err != nil {
			t.Fatal(err)
		}
	})
	// ~8 in a plain run (plan slices + net map + result bookkeeping);
	// the headroom covers the race detector, under which sync.Pool
	// deliberately drops items and the workspace reallocates.
	const budget = 24
	if allocs > budget {
		t.Errorf("structured Convex allocates %.1f/solve, budget %d", allocs, budget)
	}
	// Warm-started solves stay inside the same budget.
	prev, err := Convex(l, prices)
	if err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(50, func() {
		if _, err := ConvexWarm(l, prices, &prev); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Errorf("warm-started Convex allocates %.1f/solve, budget %d", allocs, budget)
	}
}
