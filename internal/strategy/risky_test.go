package strategy

import (
	"math"
	"math/rand"
	"testing"

	"arbloop/internal/amm"
	"arbloop/internal/convexopt"
	"arbloop/internal/linalg"
)

func TestConvexRiskyDominatesSafeConvex(t *testing.T) {
	l := paperLoop(t)
	prices := paperPrices()
	safe, err := Convex(l, prices)
	if err != nil {
		t.Fatal(err)
	}
	risky, err := ConvexRisky(l, prices)
	if err != nil {
		t.Fatal(err)
	}
	if risky.Monetized < safe.Monetized-1e-6 {
		t.Errorf("risky %.4f$ < safe %.4f$; dropping constraints cannot reduce the optimum",
			risky.Monetized, safe.Monetized)
	}
}

func TestConvexRiskyDominanceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		l := randomLoop(t, rng)
		prices := PriceMap{
			"X": rng.Float64()*20 + 0.5,
			"Y": rng.Float64()*20 + 0.5,
			"Z": rng.Float64()*20 + 0.5,
		}
		safe, err := Convex(l, prices)
		if err != nil {
			t.Fatal(err)
		}
		risky, err := ConvexRisky(l, prices)
		if err != nil {
			t.Fatal(err)
		}
		if risky.Monetized < safe.Monetized-1e-6*(1+safe.Monetized) {
			t.Errorf("trial %d: risky %.6f < safe %.6f", trial, risky.Monetized, safe.Monetized)
		}
	}
}

// TestConvexRiskyClosedFormMatchesBarrier cross-checks the per-hop closed
// form against a numeric solve of the same decoupled problem.
func TestConvexRiskyClosedFormMatchesBarrier(t *testing.T) {
	l := paperLoop(t)
	prices := paperPrices()
	risky, err := ConvexRisky(l, prices)
	if err != nil {
		t.Fatal(err)
	}

	// Barrier solve of: min −Σ (pOut·F_i(a_i) − pIn·a_i) s.t. a ≥ 0.
	n := l.Len()
	pOut := make([]float64, n)
	pIn := make([]float64, n)
	for i := 0; i < n; i++ {
		out, err := l.Hop(i).TokenOut()
		if err != nil {
			t.Fatal(err)
		}
		pOut[i] = prices[out]
		pIn[i] = prices[l.Tokens()[i]]
	}
	F := func(i int, a float64) float64 {
		v, err := l.Hop(i).Pool.AmountOut(l.Tokens()[i], a)
		if err != nil {
			return math.NaN()
		}
		return v
	}
	dF := func(i int, a float64) float64 {
		v, err := l.Hop(i).Pool.DOutDIn(l.Tokens()[i], a)
		if err != nil {
			return math.NaN()
		}
		return v
	}
	d2F := func(i int, a float64) float64 {
		v, err := l.Hop(i).Pool.D2OutDIn2(l.Tokens()[i], a)
		if err != nil {
			return math.NaN()
		}
		return v
	}
	prob := convexopt.Problem{
		N: n,
		Objective: func(x linalg.Vector) float64 {
			s := 0.0
			for i := 0; i < n; i++ {
				s += pOut[i]*F(i, x[i]) - pIn[i]*x[i]
			}
			return -s
		},
		Gradient: func(x linalg.Vector, g linalg.Vector) {
			for i := 0; i < n; i++ {
				g[i] = -(pOut[i]*dF(i, x[i]) - pIn[i])
			}
		},
		Hessian: func(x linalg.Vector, h *linalg.Matrix) {
			for i := 0; i < n; i++ {
				h.Add(i, i, -pOut[i]*d2F(i, x[i]))
			}
		},
	}
	for i := 0; i < n; i++ {
		i := i
		prob.Constraints = append(prob.Constraints, convexopt.Constraint{
			Value:    func(x linalg.Vector) float64 { return -x[i] },
			Gradient: func(x linalg.Vector, g linalg.Vector) { g[i] += -1 },
		})
	}
	x0 := linalg.Vector{1, 1, 1}
	res, err := convexopt.Minimize(prob, x0, convexopt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(-res.Objective-risky.Monetized) > 1e-4*(1+risky.Monetized) {
		t.Errorf("barrier %.6f vs closed form %.6f", -res.Objective, risky.Monetized)
	}
	for i := 0; i < n; i++ {
		if math.Abs(res.X[i]-risky.Plan.Inputs[i]) > 1e-3*(1+risky.Plan.Inputs[i]) {
			t.Errorf("input[%d]: barrier %.6f vs closed form %.6f", i, res.X[i], risky.Plan.Inputs[i])
		}
	}
}

func TestConvexRiskyMayShortTokens(t *testing.T) {
	// A loop with one very attractive hop: the risky strategy shorts the
	// input token of that hop.
	l, err := NewLoop([]Hop{
		{Pool: amm.MustNewPool("s1", "X", "Y", 100, 500, 0.003), TokenIn: "X"},
		{Pool: amm.MustNewPool("s2", "Y", "Z", 300, 300, 0.003), TokenIn: "Y"},
		{Pool: amm.MustNewPool("s3", "Z", "X", 300, 60, 0.003), TokenIn: "Z"},
	})
	if err != nil {
		t.Fatal(err)
	}
	prices := PriceMap{"X": 10, "Y": 2, "Z": 2}
	risky, err := ConvexRisky(l, prices)
	if err != nil {
		t.Fatal(err)
	}
	short := false
	for _, v := range risky.NetTokens {
		if v < -1e-9 {
			short = true
		}
	}
	if !short {
		t.Log("no short position on this configuration; checking dominance only")
	}
	safe, err := Convex(l, prices)
	if err != nil {
		t.Fatal(err)
	}
	if risky.Monetized < safe.Monetized-1e-6 {
		t.Errorf("risky %.4f < safe %.4f", risky.Monetized, safe.Monetized)
	}
}

func TestConvexRiskyZeroPrices(t *testing.T) {
	l := paperLoop(t)
	// Worthless output and free input must both clamp to zero input.
	prices := PriceMap{"X": 0, "Y": 1, "Z": 1}
	risky, err := ConvexRisky(l, prices)
	if err != nil {
		t.Fatal(err)
	}
	// Hop Z→X has pOut = 0 → input 0; hop X→Y has pIn = 0 → input 0.
	if risky.Plan.Inputs[0] != 0 {
		t.Errorf("free-input hop used %g", risky.Plan.Inputs[0])
	}
	if risky.Plan.Inputs[2] != 0 {
		t.Errorf("worthless-output hop used %g", risky.Plan.Inputs[2])
	}
	if risky.Monetized < 0 {
		t.Errorf("risky monetized = %g, want ≥ 0", risky.Monetized)
	}
}

func TestConvexRiskyRejectsBadPrices(t *testing.T) {
	l := paperLoop(t)
	if _, err := ConvexRisky(l, PriceMap{"X": 1}); err == nil {
		t.Error("missing prices: want error")
	}
}
