// Structure-exploiting fast path for the reduced arbitrage-loop problem
// (paper problem (8), per-hop-input form):
//
//	minimize    −Σ_i [ POut_i·F_i(x_i) − PIn_i·x_i ]
//	subject to  x_{i+1 mod n} − F_i(x_i) ≤ 0     (flow / no-shorting)
//	            −x_i ≤ 0                          (non-negativity)
//
// where every hop is a fee-adjusted CPMM curve, a Möbius map with
// closed-form value and derivatives:
//
//	F_i(x)  =  γ·r_out·x / (r_in + γ·x)
//	F_i′(x) =  γ·r_in·r_out / (r_in + γ·x)²
//	F_i″(x) = −2γ²·r_in·r_out / (r_in + γ·x)³
//
// The generic barrier solver (Minimize) treats this program as a black
// box: 2n closure-based constraints, a dense Hessian, and an O(n³)
// Cholesky per Newton step. But the structure is fixed and small: the
// objective Hessian is diagonal, flow constraint i couples only
// variables i and i+1, so the barrier Hessian is cyclic tridiagonal
// (linalg.CyclicSPD) and one Newton step costs O(n) with zero
// allocations. SolveLoop runs the same damped-Newton log-barrier
// iteration as Minimize — same schedule, same stopping rules, same
// suboptimality bound m/t with m = 2n — against the analytic curves.
// Minimize remains the reference implementation, used only by tests and
// benchmarks; the two agree to solver tolerance (property-tested in
// loop_test.go).
package convexopt

import (
	"errors"
	"fmt"
	"math"

	"arbloop/internal/linalg"
)

// Constant-message Newton failures, hoisted to package scope so the
// annotated solve loop constructs no error values on the hot path.
var (
	errBarrierUndefined   = errors.New("convexopt: loop barrier undefined at interior point")
	errNewtonDecrementNaN = errors.New("convexopt: loop newton decrement is NaN")
)

// LoopProblem is the reduced problem (8) over one arbitrage loop of n
// CPMM hops, stored as flat per-hop coefficient slices (index = hop).
// No closures, no interfaces, no error-wrapped curve evaluations — the
// Newton hot loop reads these arrays directly.
type LoopProblem struct {
	// Gamma, RIn, ROut are each hop's fee multiplier γ = 1 − fee and
	// oriented reserves.
	Gamma, RIn, ROut []float64
	// POut and PIn are the CEX prices of each hop's output and input
	// token.
	POut, PIn []float64
}

// N returns the hop count.
func (p *LoopProblem) N() int { return len(p.Gamma) }

// Reset prepares the problem for n hops (n ≥ 2), reusing slice capacity.
// Coefficients are left unspecified; the caller fills every entry.
func (p *LoopProblem) Reset(n int) {
	if n < 2 {
		panic(fmt.Sprintf("convexopt: loop problem needs >= 2 hops, got %d", n))
	}
	p.Gamma = resizeFloats(p.Gamma, n)
	p.RIn = resizeFloats(p.RIn, n)
	p.ROut = resizeFloats(p.ROut, n)
	p.POut = resizeFloats(p.POut, n)
	p.PIn = resizeFloats(p.PIn, n)
}

func resizeFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// F evaluates hop i's swap curve at input a ≥ 0.
func (p *LoopProblem) F(i int, a float64) float64 {
	return p.Gamma[i] * p.ROut[i] * a / (p.RIn[i] + p.Gamma[i]*a)
}

// DF evaluates F_i′(a).
func (p *LoopProblem) DF(i int, a float64) float64 {
	den := p.RIn[i] + p.Gamma[i]*a
	return p.Gamma[i] * p.RIn[i] * p.ROut[i] / (den * den)
}

// D2F evaluates F_i″(a) (< 0: the curve is strictly concave).
func (p *LoopProblem) D2F(i int, a float64) float64 {
	g := p.Gamma[i]
	den := p.RIn[i] + g*a
	return -2 * g * g * p.RIn[i] * p.ROut[i] / (den * den * den)
}

// Objective evaluates the minimization objective −Σ(POut·F − PIn·x).
func (p *LoopProblem) Objective(x []float64) float64 {
	s := 0.0
	for i := range p.Gamma {
		s += p.POut[i]*p.F(i, x[i]) - p.PIn[i]*x[i]
	}
	return -s
}

// Interior reports whether x is strictly feasible: every input positive
// and every flow constraint strictly slack.
func (p *LoopProblem) Interior(x []float64) bool {
	n := p.N()
	if len(x) != n {
		return false
	}
	for i := 0; i < n; i++ {
		if !(x[i] > 0) {
			return false
		}
		if !(p.F(i, x[i])-x[(i+1)%n] > 0) {
			return false
		}
	}
	return true
}

// Generic expands the loop problem into the closure-based Problem the
// reference solver (Minimize) and the KKT diagnostics consume. The
// constraint order matches SolveLoop's barrier: n flow constraints, then
// n non-negativity constraints.
func (p *LoopProblem) Generic() Problem {
	n := p.N()
	prob := Problem{
		N:         n,
		Objective: func(x linalg.Vector) float64 { return p.Objective(x) },
		Gradient: func(x linalg.Vector, g linalg.Vector) {
			for i := 0; i < n; i++ {
				g[i] = -(p.POut[i]*p.DF(i, x[i]) - p.PIn[i])
			}
		},
		Hessian: func(x linalg.Vector, h *linalg.Matrix) {
			for i := 0; i < n; i++ {
				h.Add(i, i, -p.POut[i]*p.D2F(i, x[i]))
			}
		},
	}
	for i := 0; i < n; i++ {
		i := i
		next := (i + 1) % n
		prob.Constraints = append(prob.Constraints, Constraint{
			Value: func(x linalg.Vector) float64 { return x[next] - p.F(i, x[i]) },
			Gradient: func(x linalg.Vector, g linalg.Vector) {
				g[next] += 1
				g[i] += -p.DF(i, x[i])
			},
			Hessian: func(x linalg.Vector, h *linalg.Matrix) {
				h.Add(i, i, -p.D2F(i, x[i]))
			},
		})
	}
	for i := 0; i < n; i++ {
		i := i
		prob.Constraints = append(prob.Constraints, Constraint{
			Value:    func(x linalg.Vector) float64 { return -x[i] },
			Gradient: func(x linalg.Vector, g linalg.Vector) { g[i] += -1 },
		})
	}
	return prob
}

// LoopWorkspace carries every slice SolveLoop needs across calls: the
// iterate, the candidate, gradient, Newton step, and the cyclic Hessian.
// After the first solve of a given order, a solve performs no
// allocations. A workspace serves one solve at a time.
type LoopWorkspace struct {
	x, cand, grad, step []float64
	// xcent snapshots the iterate after each completed centering — the
	// rollback target when a later centering stalls at float64
	// resolution, so the reported gap bound m/t always describes the
	// returned point.
	xcent []float64
	cyc   linalg.CyclicSPD
}

func (w *LoopWorkspace) reset(n int) {
	w.x = resizeFloats(w.x, n)
	w.cand = resizeFloats(w.cand, n)
	w.grad = resizeFloats(w.grad, n)
	w.step = resizeFloats(w.step, n)
	w.xcent = resizeFloats(w.xcent, n)
}

// LoopResult reports a SolveLoop outcome. X aliases the workspace's
// iterate — copy it out before reusing the workspace.
type LoopResult struct {
	// X is the final iterate (workspace-owned).
	X []float64
	// Objective is the minimization objective at X.
	Objective float64
	// GapBound is the final duality-gap bound m/t (m = 2n).
	GapBound float64
	// TBarrier is the final barrier parameter, for KKT diagnostics.
	TBarrier float64
	// OuterIters and NewtonIters count barrier and Newton steps taken.
	OuterIters, NewtonIters int
	// Converged reports whether GapBound ≤ Tol was reached.
	Converged bool
}

// validateLoopStart checks SolveLoop's preconditions. Kept out of the
// annotated solver body so its fmt error construction stays off the
// hot path.
func validateLoopStart(p *LoopProblem, x0 []float64) error {
	n := p.N()
	if n < 2 {
		return fmt.Errorf("%w: loop needs >= 2 hops", ErrBadProblem)
	}
	if len(x0) != n {
		return fmt.Errorf("%w: x0 has %d entries, want %d", ErrDimension, len(x0), n)
	}
	if !p.Interior(x0) {
		return fmt.Errorf("%w: loop start point", ErrInfeasibleStart)
	}
	return nil
}

// wrapNewtonErr attributes a cyclic Newton-system failure. Cold by
// construction: newtonStepCyclic has already retried the factorization
// with escalating ridges before reporting an error.
func wrapNewtonErr(err error) error {
	return fmt.Errorf("convexopt: loop newton system: %w", err)
}

// SolveLoop runs the log-barrier method on the loop problem from the
// strictly feasible point x0, mirroring Minimize step for step but with
// analytic curve evaluation and the O(n) cyclic Newton solve. ws is
// reused across calls; pass a fresh &LoopWorkspace{} the first time.
//
// SolveLoop is the per-loop inner solver of every scan; after workspace
// warm-up its body must stay allocation-free (checked by arblint's
// hotpath analyzer).
//
//arblint:hotpath
func SolveLoop(p *LoopProblem, x0 []float64, opts Options, ws *LoopWorkspace) (LoopResult, error) {
	n := p.N()
	if err := validateLoopStart(p, x0); err != nil {
		return LoopResult{}, err
	}
	opts = opts.withDefaults()

	ws.reset(n)
	copy(ws.x, x0)
	m := float64(2 * n)
	t := initialT(opts.T0, m, p.Objective(x0))
	// GapBound stays +Inf until the first completed centering certifies
	// a bound.
	res := LoopResult{GapBound: math.Inf(1)}

	haveCenter := false
	for outer := 0; outer < opts.MaxOuter; outer++ {
		res.OuterIters++

		// centered reports whether this t's centering reached the
		// Newton-decrement criterion. A centering that instead hits
		// float64 resolution (failed line search, stagnation, norm-phase
		// stall, iteration cap) leaves the iterate between central
		// points, where the m/t gap bound does not hold — the solve then
		// rolls back to the last completed centering and stops.
		centered := false
		stagnant := 0
		for inner := 0; inner < opts.MaxNewton; inner++ {
			phi, ok := p.evalBarrier(ws.x, t, ws.grad, &ws.cyc)
			if !ok {
				return res, errBarrierUndefined
			}

			if err := p.newtonStepCyclic(ws); err != nil {
				return res, wrapNewtonErr(err)
			}
			lambda2 := 0.0
			for i := 0; i < n; i++ {
				lambda2 -= ws.grad[i] * ws.step[i] // step = −H⁻¹∇φ ⇒ ∇φᵀstep = −λ²
			}
			if lambda2/2 <= opts.NewtonTol {
				centered = true
				break
			}
			if math.IsNaN(lambda2) {
				return res, errNewtonDecrementNaN
			}
			res.NewtonIters++

			// Backtracking line search keeping strict feasibility.
			const alpha, beta = 0.25, 0.5
			s := 1.0
			improved := false
			achieved := 0.0
			for ls := 0; ls < 60; ls++ {
				for i := 0; i < n; i++ {
					ws.cand[i] = ws.x[i] + s*ws.step[i]
				}
				if !p.Interior(ws.cand) {
					s *= beta
					continue
				}
				candPhi := p.barrierValue(ws.cand, t)
				if math.IsNaN(candPhi) || candPhi > phi-alpha*s*lambda2 {
					s *= beta
					continue
				}
				ws.x, ws.cand = ws.cand, ws.x
				improved = true
				achieved = phi - candPhi
				break
			}
			if improved && achieved > 1e-10*(1+math.Abs(phi)) {
				stagnant = 0
				continue
			}
			if improved {
				// Negligible decrease; a few in a row mean φ-certified
				// progress has hit float64 resolution.
				stagnant++
				if stagnant < 3 {
					continue
				}
			}
			// φ-certified progress is below float64 resolution (the t·f
			// term swamps representable decreases at large t). Switch to
			// the norm phase: accept Newton steps on Newton-decrement
			// reduction instead, which is immune to the cancellation.
			var err error
			centered, err = p.normPhase(t, opts, ws)
			if err != nil {
				return res, err
			}
			break
		}

		if !centered {
			if haveCenter {
				copy(ws.x, ws.xcent)
			}
			break
		}
		res.GapBound = m / t
		res.TBarrier = t
		copy(ws.xcent, ws.x)
		haveCenter = true
		if res.GapBound <= opts.Tol {
			res.Converged = true
			break
		}
		t *= opts.Mu
	}

	res.X = ws.x
	res.Objective = p.Objective(ws.x)
	return res, nil
}

// logProd accumulates Σ log(v_i) as a running product with one final
// log: math.Log dominates the barrier evaluation profile, and one call
// per φ replaces 2n. Frexp renormalization keeps the product in range
// for any loop length.
type logProd struct {
	mant float64
	exp  int
}

func (lp *logProd) init() { lp.mant, lp.exp = 1, 0 }

func (lp *logProd) mul(v float64) {
	lp.mant *= v
	if lp.mant > 1e150 || lp.mant < 1e-150 {
		frac, e := math.Frexp(lp.mant)
		lp.mant = frac
		lp.exp += e
	}
}

func (lp *logProd) log() float64 {
	return math.Log(lp.mant) + float64(lp.exp)*math.Ln2
}

// evalBarrier computes φ_t(x) = t·f(x) − Σ log(F_i(x_i) − x_{i+1}) −
// Σ log(x_i), filling grad and the cyclic Hessian. Returns ok=false
// when a log argument is non-positive.
func (p *LoopProblem) evalBarrier(x []float64, t float64, grad []float64, cyc *linalg.CyclicSPD) (float64, bool) {
	n := p.N()
	cyc.Reset(n)

	phi := 0.0
	var lp logProd
	lp.init()
	// Objective terms and non-negativity barriers first; flow barriers
	// fold in below (they need slack i for variables i and i+1).
	for i := 0; i < n; i++ {
		xi := x[i]
		if !(xi > 0) {
			return 0, false
		}
		df := p.DF(i, xi)
		phi += t * (p.PIn[i]*xi - p.POut[i]*p.F(i, xi))
		lp.mul(xi)
		grad[i] = t*(p.PIn[i]-p.POut[i]*df) - 1/xi
		cyc.Diag[i] = -t*p.POut[i]*p.D2F(i, xi) + 1/(xi*xi)
	}
	for i := 0; i < n; i++ {
		next := (i + 1) % n
		s := p.F(i, x[i]) - x[next]
		if !(s > 0) {
			return 0, false
		}
		lp.mul(s)
		df := p.DF(i, x[i])
		inv := 1 / s
		// ∇g = (−F′ at i, +1 at next); ∇φ += ∇g/s, ∇²φ += ∇g∇gᵀ/s² − ∇²g/s.
		grad[i] -= df * inv
		grad[next] += inv
		cyc.Diag[i] += df*df*inv*inv - p.D2F(i, x[i])*inv
		cyc.Diag[next] += inv * inv
		cyc.Off[i] += -df * inv * inv
	}
	return phi - lp.log(), true
}

// barrierValue computes φ_t(x) only; NaN when infeasible.
func (p *LoopProblem) barrierValue(x []float64, t float64) float64 {
	n := p.N()
	phi := 0.0
	var lp logProd
	lp.init()
	for i := 0; i < n; i++ {
		xi := x[i]
		s := p.F(i, xi) - x[(i+1)%n]
		if !(xi > 0) || !(s > 0) {
			return math.NaN()
		}
		phi += t * (p.PIn[i]*xi - p.POut[i]*p.F(i, xi))
		lp.mul(xi)
		lp.mul(s)
	}
	return phi - lp.log()
}

// normPhase finishes a centering whose φ-value line search hit float64
// resolution: near the central point the barrier value t·f(x) − Σ log(·)
// dwarfs the decreases a Newton step makes, so the Armijo test cannot
// certify progress even though the iterate is still converging. The norm
// phase instead accepts (feasibility-damped) Newton steps as long as the
// Newton decrement λ² keeps shrinking — a quantity computed from
// gradients, free of the cancellation — until the decrement criterion is
// met (centered) or λ² stops improving (genuinely stalled).
func (p *LoopProblem) normPhase(t float64, opts Options, ws *LoopWorkspace) (bool, error) {
	n := p.N()
	eval := func(x []float64) (float64, error) {
		if _, ok := p.evalBarrier(x, t, ws.grad, &ws.cyc); !ok {
			return 0, errBarrierUndefined
		}
		if err := p.newtonStepCyclic(ws); err != nil {
			return 0, err
		}
		l2 := 0.0
		for i := 0; i < n; i++ {
			l2 -= ws.grad[i] * ws.step[i]
		}
		return l2, nil
	}
	lambda2, err := eval(ws.x)
	if err != nil {
		return false, err
	}
	for iter := 0; iter < 40; iter++ {
		if lambda2/2 <= opts.NewtonTol {
			return true, nil
		}
		s := 1.0
		for ; s > 1e-12; s *= 0.5 {
			for i := 0; i < n; i++ {
				ws.cand[i] = ws.x[i] + s*ws.step[i]
			}
			if p.Interior(ws.cand) {
				break
			}
		}
		if s <= 1e-12 {
			return false, nil
		}
		l2, err := eval(ws.cand)
		if err != nil {
			return false, err
		}
		// Require genuine decrement reduction; NaN or growth means the
		// step left the quadratic basin and the phase must stop (ws.x is
		// untouched — grad/step are scratch).
		if !(l2 < 0.9*lambda2) {
			return false, nil
		}
		ws.x, ws.cand = ws.cand, ws.x
		lambda2 = l2
	}
	return false, nil
}

// newtonStepCyclic solves H·step = −∇φ through the cyclic factorization,
// adding a proportionate diagonal ridge when H is not numerically
// positive definite (near-active constraints push barrier terms many
// orders of magnitude above the rest of the Hessian).
func (p *LoopProblem) newtonStepCyclic(ws *LoopWorkspace) error {
	n := p.N()
	for i := 0; i < n; i++ {
		ws.step[i] = -ws.grad[i]
	}
	maxDiag := ws.cyc.MaxDiag()
	ridge := 0.0
	var err error
	for attempt := 0; attempt < 16; attempt++ {
		if err = ws.cyc.FactorRidged(ridge); err == nil {
			return ws.cyc.Solve(ws.step, ws.step)
		}
		if ridge == 0 {
			ridge = 1e-14 * maxDiag
		} else {
			ridge *= 100
		}
	}
	// Last resort: a full-scale ridge (gradient-like step). The matrix
	// H + maxDiag·I is far inside the positive definite cone; failure
	// here means the coefficients are NaN/Inf.
	if ferr := ws.cyc.FactorRidged(maxDiag); ferr != nil {
		return ferr
	}
	return ws.cyc.Solve(ws.step, ws.step)
}
