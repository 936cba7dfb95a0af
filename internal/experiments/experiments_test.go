package experiments

import (
	"math"
	"testing"

	"arbloop/internal/market"
)

func TestFig1ShapeAndOptimum(t *testing.T) {
	res, err := Fig1(121)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 121 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Paper: optimum at Δx* ≈ 27.0 with profit ≈ 16.8.
	if math.Abs(res.OptimalInput-27.0) > 0.05 {
		t.Errorf("Δx* = %.3f, paper 27.0", res.OptimalInput)
	}
	if math.Abs(res.MaxProfit-16.87) > 0.1 {
		t.Errorf("max profit = %.3f, paper ≈ 16.8", res.MaxProfit)
	}
	// Profit rises before the optimum and falls after; derivative crosses 1.
	for i := 1; i < len(res.Rows); i++ {
		prev, cur := res.Rows[i-1], res.Rows[i]
		if cur.Input <= res.OptimalInput && cur.Profit < prev.Profit-1e-9 {
			t.Errorf("profit not increasing at Δ=%.2f before optimum", cur.Input)
		}
		if prev.Input >= res.OptimalInput && cur.Profit > prev.Profit+1e-9 {
			t.Errorf("profit not decreasing at Δ=%.2f after optimum", cur.Input)
		}
		if prev.Derivative < cur.Derivative {
			t.Errorf("derivative not monotone at Δ=%.2f", cur.Input)
		}
	}
	if _, err := Fig1(1); err == nil {
		t.Error("fig1 with 1 point: want error")
	}
}

func TestPxSweepReproducesFig2And3(t *testing.T) {
	rows, err := PxSweep(0.5) // coarser than the paper for test speed
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 41 {
		t.Fatalf("rows = %d, want 41", len(rows))
	}

	var maxPriceBeaten bool
	for _, r := range rows {
		// MaxMax is the exact upper envelope of the three starts (Fig. 2).
		env := math.Max(r.StartX, math.Max(r.StartY, r.StartZ))
		if math.Abs(r.MaxMax-env) > 1e-9*(1+env) {
			t.Errorf("Px=%.1f: MaxMax %.4f != envelope %.4f", r.Px, r.MaxMax, env)
		}
		// Convex dominates MaxMax (Fig. 3).
		if r.Convex < r.MaxMax-1e-6*(1+r.MaxMax) {
			t.Errorf("Px=%.1f: Convex %.4f < MaxMax %.4f", r.Px, r.Convex, r.MaxMax)
		}
		// MaxPrice ≤ MaxMax always; strictly below somewhere (Fig. 2's
		// point that the heuristic is unreliable).
		if r.MaxPrice > r.MaxMax+1e-9*(1+r.MaxMax) {
			t.Errorf("Px=%.1f: MaxPrice %.4f > MaxMax %.4f", r.Px, r.MaxPrice, r.MaxMax)
		}
		if r.MaxPrice < r.MaxMax-1 {
			maxPriceBeaten = true
		}
	}
	if !maxPriceBeaten {
		t.Error("MaxPrice never clearly beaten across the sweep; paper shows it must be (e.g. Px ≈ 15)")
	}

	// Paper's spot values at Px = 2 (the Section V base case).
	for _, r := range rows {
		if math.Abs(r.Px-2) < 1e-9 {
			if math.Abs(r.StartX-33.7) > 0.5 {
				t.Errorf("StartX at Px=2: %.2f, paper 33.7", r.StartX)
			}
			if math.Abs(r.MaxMax-205.6) > 0.5 {
				t.Errorf("MaxMax at Px=2: %.2f, paper 205.6", r.MaxMax)
			}
			if math.Abs(r.Convex-206.1) > 0.5 {
				t.Errorf("Convex at Px=2: %.2f, paper 206.1", r.Convex)
			}
		}
	}
}

func TestFig4NetTokensNonNegativeAndClustered(t *testing.T) {
	rows, err := Fig4(0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Net amounts never short a token; composition changes with Px (the
	// paper reports ~6 clusters over the full sweep — require at least 3
	// distinct compositions at this coarser step).
	type key struct{ x, y, z int }
	clusters := make(map[key]bool)
	for _, r := range rows {
		if r.NetX < -1e-6 || r.NetY < -1e-6 || r.NetZ < -1e-6 {
			t.Errorf("Px=%.1f: negative net token (%g, %g, %g)", r.Px, r.NetX, r.NetY, r.NetZ)
		}
		clusters[key{int(math.Round(r.NetX)), int(math.Round(r.NetY)), int(math.Round(r.NetZ))}] = true
	}
	if len(clusters) < 3 {
		t.Errorf("net-token clusters = %d, want ≥ 3 (paper shows ~6)", len(clusters))
	}
}

// quickPipeline runs a reduced pipeline so the empirical tests stay fast.
func quickPipeline(t *testing.T, loopLen, maxLoops int) *PipelineResult {
	t.Helper()
	res, err := RunPipeline(PipelineConfig{
		LoopLen:  loopLen,
		MaxLoops: maxLoops,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Loops) == 0 {
		t.Fatal("pipeline found no arbitrage loops")
	}
	return res
}

func TestPipelineT2Statistics(t *testing.T) {
	res := quickPipeline(t, 3, 0)
	if res.Graph.NumNodes() != 51 {
		t.Errorf("tokens = %d, paper 51", res.Graph.NumNodes())
	}
	if res.Graph.NumEdges() != 208 {
		t.Errorf("pools = %d, paper 208", res.Graph.NumEdges())
	}
	if len(res.Loops) != 123 {
		t.Errorf("arbitrage loops = %d, paper 123", len(res.Loops))
	}
}

func TestFig5AllPointsUnderDiagonal(t *testing.T) {
	res := quickPipeline(t, 3, 40)
	pts := Fig5(res)
	if len(pts) != 3*len(res.Loops) {
		t.Fatalf("points = %d, want 3 per loop", len(pts))
	}
	var strictlyBelow int
	for _, p := range pts {
		if p.Y > p.X+1e-9*(1+p.X) {
			t.Errorf("point above diagonal: traditional %.4f > maxmax %.4f", p.Y, p.X)
		}
		if p.Y < p.X-1e-6*(1+p.X) {
			strictlyBelow++
		}
	}
	// With three starts per loop, at most one can equal the max; the rest
	// sit strictly below (unless exact ties, which are measure-zero).
	if strictlyBelow == 0 {
		t.Error("no traditional start strictly below MaxMax; scatter should spread under the diagonal")
	}
}

func TestFig6MaxPriceUnderDiagonalAndSometimesFar(t *testing.T) {
	res := quickPipeline(t, 3, 0)
	pts := Fig6(res)
	if len(pts) != len(res.Loops) {
		t.Fatalf("points = %d, want 1 per loop", len(pts))
	}
	var below int
	for _, p := range pts {
		if p.Y > p.X+1e-9*(1+p.X) {
			t.Errorf("MaxPrice %.4f above MaxMax %.4f", p.Y, p.X)
		}
		if p.Y < p.X*0.99 {
			below++
		}
	}
	if below == 0 {
		t.Error("MaxPrice always matches MaxMax; paper finds it unreliable on real loop sets")
	}
}

func TestFig7ConvexHugsDiagonal(t *testing.T) {
	res := quickPipeline(t, 3, 40)
	pts := Fig7(res)
	for _, p := range pts {
		// x = Convex, y = MaxMax: MaxMax never exceeds Convex…
		if p.Y > p.X+1e-6*(1+p.X) {
			t.Errorf("MaxMax %.6f above Convex %.6f", p.Y, p.X)
		}
		// …and the two are nearly equal (paper: points on the 45° line).
		if p.Y < p.X*0.97-1e-6 {
			t.Errorf("Convex %.4f far above MaxMax %.4f; paper reports near-equality", p.X, p.Y)
		}
	}
}

func TestFig8NetVectorsNearlyOverlap(t *testing.T) {
	res := quickPipeline(t, 3, 40)
	rows := Fig8(res)
	if len(rows) != len(res.Loops) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if len(r.Tokens) != 3 || len(r.MaxMaxNet) != 3 || len(r.ConvexNet) != 3 {
			t.Fatalf("row shape: %+v", r)
		}
		// The monetized totals nearly match, so the vectors can differ
		// by at most a small monetized amount; check the dominant token's
		// net is within 5% when it carries the profit.
		for i := range r.Tokens {
			mm, cv := r.MaxMaxNet[i], r.ConvexNet[i]
			if mm > 1 && math.Abs(cv-mm) > 0.25*mm {
				t.Logf("net %s: maxmax %.3f vs convex %.3f (loop may route profit differently)", r.Tokens[i], mm, cv)
			}
			if cv < -1e-6 || mm < -1e-6 {
				t.Errorf("negative net token: %s mm=%g cv=%g", r.Tokens[i], mm, cv)
			}
		}
	}
}

func TestFig9And10Length4(t *testing.T) {
	res := quickPipeline(t, 4, 30)
	if got := res.Loops[0].Loop.Len(); got != 4 {
		t.Fatalf("loop length = %d, want 4", got)
	}
	p9 := Fig9(res)
	if len(p9) != 4*len(res.Loops) {
		t.Fatalf("fig9 points = %d, want 4 per loop", len(p9))
	}
	for _, p := range p9 {
		if p.Y > p.X+1e-6*(1+p.X) {
			t.Errorf("traditional %.4f above convex %.4f", p.Y, p.X)
		}
	}
	p10 := Fig10(res)
	for _, p := range p10 {
		if p.Y > p.X+1e-6*(1+p.X) {
			t.Errorf("maxmax %.6f above convex %.6f", p.Y, p.X)
		}
		if p.Y < p.X*0.97-1e-6 {
			t.Errorf("convex %.4f far above maxmax %.4f", p.X, p.Y)
		}
	}
}

func TestTableT1MatchesPaper(t *testing.T) {
	res, err := TableT1()
	if err != nil {
		t.Fatal(err)
	}
	wantStarts := map[string][3]float64{ // input, profit, monetized
		"X": {27.0, 16.8, 33.7},
		"Y": {31.5, 19.7, 201.1},
		"Z": {16.4, 10.3, 205.6},
	}
	for _, s := range res.Starts {
		w, ok := wantStarts[s.Start]
		if !ok {
			t.Fatalf("unexpected start %q", s.Start)
		}
		if math.Abs(s.Input-w[0]) > 0.05 || math.Abs(s.Profit-w[1]) > 0.1 || math.Abs(s.Monetized-w[2]) > 0.5 {
			t.Errorf("start %s = (%.2f, %.2f, %.2f), paper (%.1f, %.1f, %.1f)",
				s.Start, s.Input, s.Profit, s.Monetized, w[0], w[1], w[2])
		}
	}
	if res.MaxMaxStart != "Z" || math.Abs(res.MaxMaxMonetized-205.6) > 0.5 {
		t.Errorf("MaxMax = %s %.2f, paper Z 205.6", res.MaxMaxStart, res.MaxMaxMonetized)
	}
	if math.Abs(res.ConvexMonetized-206.1) > 0.5 {
		t.Errorf("Convex = %.2f, paper 206.1", res.ConvexMonetized)
	}
	if math.Abs(res.ConvexNet["Y"]-5.0) > 0.2 || math.Abs(res.ConvexNet["Z"]-7.7) > 0.2 {
		t.Errorf("Convex net = %v, paper ≈ 5 Y + 7.7 Z", res.ConvexNet)
	}
}

func TestTableT2MatchesPaper(t *testing.T) {
	res, err := TableT2(market.DefaultGeneratorConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Tokens != 51 || res.Pools != 208 {
		t.Errorf("graph = %d tokens, %d pools; paper 51, 208", res.Tokens, res.Pools)
	}
	if res.ArbLoopsLen3 != 123 {
		t.Errorf("length-3 arbitrage loops = %d, paper 123", res.ArbLoopsLen3)
	}
	if res.ArbLoopsLen3 > res.CyclesLen3 {
		t.Error("more arbitrage loops than cycles")
	}
	if res.CyclesLen4 <= res.CyclesLen3 {
		t.Errorf("4-cycles (%d) should outnumber triangles (%d) on this graph", res.CyclesLen4, res.CyclesLen3)
	}
}

func TestTableT3RuntimeShape(t *testing.T) {
	rows, err := TableT3([]int{3, 6, 10}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// §VII: MaxMax stays at millisecond level even at length 10.
		if r.MaxMaxClosed.Milliseconds() > 10 {
			t.Errorf("len %d: MaxMax closed-form took %v, want ≤ ms level", r.Length, r.MaxMaxClosed)
		}
		if r.MaxMaxBisect.Milliseconds() > 50 {
			t.Errorf("len %d: MaxMax bisection took %v", r.Length, r.MaxMaxBisect)
		}
	}
	// The barrier method's cost exceeds MaxMax (relative shape).
	last := rows[len(rows)-1]
	if last.Barrier <= last.MaxMaxClosed {
		t.Errorf("len %d: barrier (%v) not slower than closed-form MaxMax (%v)",
			last.Length, last.Barrier, last.MaxMaxClosed)
	}
	// The strategy's exact solve is no slower than the barrier method.
	for _, r := range rows {
		if r.Convex > r.Barrier {
			t.Errorf("len %d: Convex (%v) slower than the barrier method (%v)", r.Length, r.Convex, r.Barrier)
		}
	}
}

func TestSyntheticLoopProfitableAcrossLengths(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8, 12} {
		loop, prices, err := SyntheticLoop(n)
		if err != nil {
			t.Fatalf("length %d: %v", n, err)
		}
		if loop.Len() != n {
			t.Errorf("length %d: got %d hops", n, loop.Len())
		}
		if err := prices.Validate(loop); err != nil {
			t.Errorf("length %d: %v", n, err)
		}
	}
	if _, _, err := SyntheticLoop(1); err == nil {
		t.Error("length 1: want error")
	}
}

func TestRunPipelineOnSnapshotRespectsMaxLoops(t *testing.T) {
	snap, err := market.Generate(market.DefaultGeneratorConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunPipelineOnSnapshot(snap, PipelineConfig{LoopLen: 3, MaxLoops: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Loops) != 5 {
		t.Errorf("loops = %d, want 5", len(res.Loops))
	}
}

// TestConvexDominatesMaxMaxOnSectionVI checks the paper's Convex ≥ MaxMax
// ordering (Fig. 7) with zero tolerance on every §VI arbitrage loop of
// lengths 3, 4 and 5.
func TestConvexDominatesMaxMaxOnSectionVI(t *testing.T) {
	loops := 0
	for _, n := range []int{3, 4, 5} {
		res, err := RunPipeline(PipelineConfig{LoopLen: n})
		if err != nil {
			t.Fatal(err)
		}
		for _, la := range res.Loops {
			if la.Convex.Monetized < la.MaxMax.Monetized {
				t.Errorf("%s: Convex %.17g < MaxMax %.17g", la.Loop, la.Convex.Monetized, la.MaxMax.Monetized)
			}
		}
		loops += len(res.Loops)
	}
	// 123 + 755 + 5,167: the test covers the whole market.
	if loops != 6045 {
		t.Errorf("checked %d loops, want 6045", loops)
	}
}
