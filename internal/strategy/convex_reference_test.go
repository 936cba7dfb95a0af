package strategy

import (
	"fmt"
	"math"

	"arbloop/internal/convexopt"
	"arbloop/internal/linalg"
)

// convexSolverOptions are the barrier parameters of the reference solve:
// the solver defaults with a higher Newton cap per centering.
var convexSolverOptions = convexopt.Options{MaxNewton: 300}

// convexReference is the dense reference solve of problem (8): the
// closure-based problem handed to the dense barrier solver
// (convexopt.Minimize). It evaluates the curves through amm.Pool rather
// than the fast path's staged coefficients, so it stays an independent
// oracle for Convex. MaxMax is computed once and reused for the warm
// start, the quality floor, and the fallback plan.
func convexReference(l *Loop, prices PriceMap) (Result, error) {
	n := l.Len()
	prob, err := convexProblem(l, prices)
	if err != nil {
		return Result{}, err
	}
	mm, err := MaxMax(l, prices)
	if err != nil {
		return Result{}, err
	}
	// fallback is the always-feasible MaxMax plan labeled as the convex
	// result — the answer when the barrier solve cannot run or cannot
	// beat it. The convex optimum provably dominates MaxMax, so
	// substituting it only ever under-reports profit, never fabricates.
	fallback := func() Result {
		r := mm
		r.Strategy = NameConvex
		return r
	}
	x0, err := warmStartFromMaxMax(l, mm)
	if err != nil {
		// Near-degenerate loop (price product barely above 1): no
		// strictly interior start is reachable in float64. Serve the
		// MaxMax plan instead of aborting the scan.
		return fallback(), nil
	}
	res, err := convexopt.Minimize(prob, x0, convexSolverOptions)
	if err != nil {
		return fallback(), nil
	}

	plan := TradePlan{Inputs: make([]float64, n), Outputs: make([]float64, n)}
	for i := 0; i < n; i++ {
		a := res.X[i]
		if a < 0 {
			a = 0
		}
		out, err := l.Hop(i).Pool.AmountOut(l.tokens[i], a)
		if err != nil {
			return Result{}, fmt.Errorf("hop %d: %w", i, err)
		}
		plan.Inputs[i] = a
		plan.Outputs[i] = out
	}
	net := plan.NetTokens(l)
	// Clamp barrier slack: net amounts within solver tolerance of zero are
	// zero (the true optimum satisfies no-shorting exactly).
	for t, v := range net {
		if math.Abs(v) < 1e-9 {
			net[t] = 0
		}
	}
	mon, err := Monetize(l, net, prices)
	if err != nil {
		return Result{}, err
	}
	if !(mon >= mm.Monetized) {
		// Preserve Convex ≥ MaxMax when the barrier stalls short.
		return fallback(), nil
	}
	return Result{
		Strategy:  NameConvex,
		Loop:      l,
		Plan:      plan,
		NetTokens: net,
		Monetized: mon,
	}, nil
}

// convexProblem builds the reduced problem (8) for convexopt: variables
// a_0…a_{n−1}, minimize the negated monetized profit.
func convexProblem(l *Loop, prices PriceMap) (convexopt.Problem, error) {
	n := l.Len()
	// Per-hop data: output token price, input token price, and the pool
	// curve oriented for the hop.
	pOut := make([]float64, n)
	pIn := make([]float64, n)
	for i := 0; i < n; i++ {
		out, err := l.Hop(i).TokenOut()
		if err != nil {
			return convexopt.Problem{}, err
		}
		pOut[i] = prices[out]
		pIn[i] = prices[l.tokens[i]]
	}

	amountOut := func(i int, a float64) float64 {
		v, err := l.Hop(i).Pool.AmountOut(l.tokens[i], a)
		if err != nil {
			return math.NaN()
		}
		return v
	}
	dOut := func(i int, a float64) float64 {
		v, err := l.Hop(i).Pool.DOutDIn(l.tokens[i], a)
		if err != nil {
			return math.NaN()
		}
		return v
	}
	d2Out := func(i int, a float64) float64 {
		v, err := l.Hop(i).Pool.D2OutDIn2(l.tokens[i], a)
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
				s += pOut[i]*amountOut(i, x[i]) - pIn[i]*x[i]
			}
			return -s
		},
		Gradient: func(x linalg.Vector, g linalg.Vector) {
			for i := 0; i < n; i++ {
				g[i] = -(pOut[i]*dOut(i, x[i]) - pIn[i])
			}
		},
		Hessian: func(x linalg.Vector, h *linalg.Matrix) {
			for i := 0; i < n; i++ {
				h.Add(i, i, -pOut[i]*d2Out(i, x[i]))
			}
		},
	}

	// Flow constraints: a_{(i+1)%n} − F_i(a_i) ≤ 0.
	for i := 0; i < n; i++ {
		i := i
		next := (i + 1) % n
		prob.Constraints = append(prob.Constraints, convexopt.Constraint{
			Value: func(x linalg.Vector) float64 {
				return x[next] - amountOut(i, x[i])
			},
			Gradient: func(x linalg.Vector, g linalg.Vector) {
				g[next] += 1
				g[i] += -dOut(i, x[i])
			},
			Hessian: func(x linalg.Vector, h *linalg.Matrix) {
				h.Add(i, i, -d2Out(i, x[i]))
			},
		})
	}
	// Non-negativity: −a_i ≤ 0.
	for i := 0; i < n; i++ {
		i := i
		prob.Constraints = append(prob.Constraints, convexopt.Constraint{
			Value:    func(x linalg.Vector) float64 { return -x[i] },
			Gradient: func(x linalg.Vector, g linalg.Vector) { g[i] += -1 },
		})
	}
	return prob, nil
}

// warmStart builds a strictly feasible interior start from the MaxMax
// plan; see warmStartFromMaxMax.
func warmStart(l *Loop, prices PriceMap) (linalg.Vector, error) {
	mm, err := MaxMax(l, prices)
	if err != nil {
		return nil, err
	}
	return warmStartFromMaxMax(l, mm)
}

// warmStartFromMaxMax builds a strictly feasible interior start from an
// already computed MaxMax result: the best single-rotation plan is
// feasible for problem (8) with all flows positive, and shrinking it
// uniformly by (1−η) makes every flow constraint strictly slack because
// F is strictly concave with F(0) = 0 (F(c·a) > c·F(a) for 0 < c < 1).
// Starting next to the MaxMax optimum keeps the central path short — the
// convex optimum is provably ≥ and empirically near the MaxMax value
// (paper Fig. 7).
func warmStartFromMaxMax(l *Loop, mm Result) (linalg.Vector, error) {
	n := l.Len()
	if mm.Input <= 0 {
		return nil, fmt.Errorf("strategy: warm start requires a profitable loop (%s)", l)
	}
	// Map the rotated plan back onto the original hop indexing.
	offset := -1
	for i, t := range l.tokens {
		if t == mm.StartToken {
			offset = i
			break
		}
	}
	if offset < 0 {
		return nil, fmt.Errorf("%w: %q", ErrUnknownStart, mm.StartToken)
	}
	base := make(linalg.Vector, n)
	for i := 0; i < n; i++ {
		base[(i+offset)%n] = mm.Plan.Inputs[i]
	}

	for _, eta := range []float64{0.05, 0.15, 0.4, 0.75} {
		a := base.Scale(1 - eta)
		if interiorFeasible(l, a) {
			return a, nil
		}
	}
	return nil, fmt.Errorf("strategy: failed to find interior point for %s", l)
}

// interiorFeasible reports strict feasibility of the flow vector for the
// reduced problem (8).
func interiorFeasible(l *Loop, a linalg.Vector) bool {
	n := l.Len()
	for i := 0; i < n; i++ {
		if a[i] <= 0 {
			return false
		}
		out, err := l.Hop(i).Pool.AmountOut(l.tokens[i], a[i])
		if err != nil {
			return false
		}
		if out <= a[(i+1)%n] {
			return false
		}
	}
	return true
}
