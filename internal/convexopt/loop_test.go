package convexopt

import (
	"math"
	"math/rand"
	"testing"

	"arbloop/internal/linalg"
)

// randomLoopProblem builds a random profitable arbitrage loop of length
// n: per-hop reserves log-uniform over several decades, fees from the
// realistic set, and a price product nudged above 1 by scaling one
// hop's output reserve.
func randomLoopProblem(rng *rand.Rand, n int) *LoopProblem {
	p := &LoopProblem{}
	p.Reset(n)
	fees := []float64{0, 0.001, 0.003, 0.01, 0.03}
	for {
		prod := 1.0
		for i := 0; i < n; i++ {
			p.Gamma[i] = 1 - fees[rng.Intn(len(fees))]
			p.RIn[i] = math.Pow(10, 3+3*rng.Float64())
			p.ROut[i] = math.Pow(10, 3+3*rng.Float64())
			prod *= p.Gamma[i] * p.ROut[i] / p.RIn[i]
		}
		// Make the loop clearly profitable: scale hop 0's output reserve
		// so the spot-price product lands in [1.05, 2].
		target := 1.05 + 0.95*rng.Float64()
		p.ROut[0] *= target / prod
		// Consistent prices: hop i's output token is hop i+1's input
		// token, so PIn[(i+1)%n] must equal POut[i].
		p.PIn[0] = math.Pow(10, -1+4*rng.Float64())
		for i := 0; i < n; i++ {
			p.POut[i] = math.Pow(10, -1+4*rng.Float64())
			p.PIn[(i+1)%n] = p.POut[i]
		}
		p.POut[n-1] = p.PIn[0]
		return p
	}
}

// rotationPlan walks the single-rotation closed-form optimum from hop 0:
// the per-hop inputs of the best plan that nets profit in token 0 only.
func rotationPlan(t *testing.T, p *LoopProblem) []float64 {
	t.Helper()
	n := p.N()
	// Compose the Möbius maps F(Δ) = AΔ/(B + CΔ) along the loop.
	A, B, C := 1.0, 1.0, 0.0
	for i := 0; i < n; i++ {
		a2, b2, c2 := p.Gamma[i]*p.ROut[i], p.RIn[i], p.Gamma[i]
		A, B, C = a2*A, B*b2, b2*C+c2*A
	}
	if A <= B {
		t.Fatal("random loop is not profitable")
	}
	base := make([]float64, n)
	amt := (math.Sqrt(A*B) - B) / C
	for i := 0; i < n; i++ {
		base[i] = amt
		amt = p.F(i, amt)
	}
	return base
}

// interiorStart finds a strictly feasible start by shrinking the
// single-rotation plan uniformly: F strictly concave with F(0) = 0 gives
// F(c·a) > c·F(a), so every flow constraint turns strictly slack.
func interiorStart(t *testing.T, base []float64, p *LoopProblem) []float64 {
	t.Helper()
	x := make([]float64, len(base))
	for _, eta := range []float64{0.05, 0.15, 0.4, 0.75} {
		for i := range base {
			x[i] = base[i] * (1 - eta)
		}
		if p.Interior(x) {
			return x
		}
	}
	t.Fatal("no interior start for random loop")
	return nil
}

// TestLoopProblemGenericMinimize solves staged loop problems with the
// reference barrier method through Generic, across random profitable
// loops of length 2–6: the solve certifies a gap small against the
// objective, its plan satisfies the KKT residuals of the generic
// formulation, and it does at least as well as the single-rotation plan
// its start was shrunk from (problem (8) relaxes the single-start
// problem).
func TestLoopProblemGenericMinimize(t *testing.T) {
	rng := rand.New(rand.NewSource(20240728))
	opts := Options{MaxNewton: 300}
	for n := 2; n <= 6; n++ {
		for trial := 0; trial < 12; trial++ {
			p := randomLoopProblem(rng, n)
			base := rotationPlan(t, p)
			gp := p.Generic()
			res, err := Minimize(gp, linalg.Vector(interiorStart(t, base, p)), opts)
			if err != nil {
				t.Fatalf("n=%d trial %d: Minimize: %v", n, trial, err)
			}
			// Converged means the absolute gap tolerance was met; at large
			// objective scales centering stalls at float64 resolution
			// first, so require a gap that is small relative to the
			// objective instead. An infinite gap (no centering certified
			// a bound — the rare boundary-creep exhaustion) skips the
			// gap-dependent checks.
			scale := 1 + math.Abs(res.Objective)
			if math.IsInf(res.GapBound, 1) {
				continue
			}
			if res.GapBound > 1e-6*scale {
				t.Fatalf("n=%d trial %d: gap bound %g at objective %g", n, trial, res.GapBound, res.Objective)
			}
			if rot := p.Objective(base); res.Objective > rot+res.GapBound+1e-9*scale {
				t.Errorf("n=%d trial %d: barrier objective %.12g above the rotation's %.12g", n, trial, res.Objective, rot)
			}

			// KKT residuals through the generic formulation at the final
			// barrier parameter t = m/gap (m = 2n constraints).
			// Stationarity is measured against the objective gradient's
			// magnitude; the 5e-3 factor reflects the Newton decrement
			// tolerance amplified by the barrier Hessian's 1/slack²
			// conditioning at near-active constraints.
			grad := linalg.NewVector(n)
			gp.Gradient(res.X, grad)
			gscale := 1 + grad.NormInf()
			tBarrier := float64(2*n) / res.GapBound
			stat, comp, err := KKTResiduals(gp, res.X, tBarrier)
			if err != nil {
				t.Fatalf("n=%d trial %d: KKTResiduals: %v", n, trial, err)
			}
			if stat > 5e-3*gscale {
				t.Errorf("n=%d trial %d: stationarity residual %g (scale %g)", n, trial, stat, gscale)
			}
			if comp > 1.1/tBarrier {
				t.Errorf("n=%d trial %d: complementarity %g exceeds 1/t = %g", n, trial, comp, 1/tBarrier)
			}
		}
	}
}
