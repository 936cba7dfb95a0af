// Package convexopt implements a self-contained interior-point solver for
// smooth convex programs
//
//	minimize    f(x)
//	subject to  g_i(x) ≤ 0,  i = 1…m
//
// with twice-differentiable f and g_i, using the classic log-barrier
// path-following method (Boyd & Vandenberghe, ch. 11): for increasing t,
// minimize φ_t(x) = t·f(x) − Σ log(−g_i(x)) with damped Newton steps, each
// solved through a dense Cholesky factorization (package linalg). The
// suboptimality after the outer loop is bounded by m/t.
//
// The paper's ConvexOptimization strategy (problem (8)) is solved exactly
// by package strategy from the coefficients staged in a LoopProblem
// (loop.go); Minimize is the reference it is tested and benchmarked
// against, and the barrier method of the paper's §VII runtime table. Go
// lacks a mature convex-optimization library, so the solver is
// hand-rolled (see DESIGN.md substitutions).
package convexopt

import (
	"errors"
	"fmt"
	"math"

	"arbloop/internal/linalg"
)

// Errors returned by the solver.
var (
	ErrInfeasibleStart = errors.New("convexopt: start point is not strictly feasible")
	ErrDimension       = errors.New("convexopt: dimension mismatch")
	ErrNoProgress      = errors.New("convexopt: line search failed to make progress")
	ErrBadProblem      = errors.New("convexopt: malformed problem")
)

// Constraint is one inequality g(x) ≤ 0.
type Constraint struct {
	// Value evaluates g(x). Feasibility requires g(x) < 0 strictly for
	// interior points.
	Value func(x linalg.Vector) float64
	// Gradient writes ∇g(x) into grad (len n, pre-zeroed by the solver).
	Gradient func(x linalg.Vector, grad linalg.Vector)
	// Hessian adds ∇²g(x) into h (n×n). Nil for affine constraints.
	Hessian func(x linalg.Vector, h *linalg.Matrix)
}

// Problem is a smooth convex minimization problem.
type Problem struct {
	// N is the number of variables.
	N int
	// Objective evaluates f(x).
	Objective func(x linalg.Vector) float64
	// Gradient writes ∇f(x) into grad (len n, pre-zeroed by the solver).
	Gradient func(x linalg.Vector, grad linalg.Vector)
	// Hessian adds ∇²f(x) into h (n×n, pre-zeroed by the solver). Nil for
	// affine objectives.
	Hessian func(x linalg.Vector, h *linalg.Matrix)
	// Constraints are the inequality constraints.
	Constraints []Constraint
}

// Options tune the barrier method. Zero values select defaults.
type Options struct {
	// Tol is the target duality-gap bound m/t (default 1e-9).
	Tol float64
	// T0 is the initial barrier parameter. Zero selects a scale-aware
	// default: m / (5% of |f(x0)|), capped at 1 — so the first
	// centering's gap bound is proportionate to the objective scale and
	// large-scale problems skip the boundary-creep phase a flat t=1
	// would suffer (Boyd & Vandenberghe §11.3.1).
	T0 float64
	// Mu is the barrier growth factor per outer iteration (default 20).
	Mu float64
	// NewtonTol stops the inner loop when the Newton decrement λ²/2 falls
	// below it (default 1e-10).
	NewtonTol float64
	// MaxNewton bounds inner iterations per outer step (default 100).
	MaxNewton int
	// MaxOuter bounds outer (centering) steps (default 100).
	MaxOuter int
}

func (o Options) withDefaults() Options {
	if o.Tol <= 0 {
		o.Tol = 1e-9
	}
	// T0 <= 0 stays zero: the solvers derive the scale-aware default
	// from the start point (see initialT).
	if o.Mu <= 1 {
		o.Mu = 20
	}
	if o.NewtonTol <= 0 {
		o.NewtonTol = 1e-10
	}
	if o.MaxNewton <= 0 {
		o.MaxNewton = 100
	}
	if o.MaxOuter <= 0 {
		o.MaxOuter = 100
	}
	return o
}

// Result reports the solver outcome.
type Result struct {
	// X is the final iterate.
	X linalg.Vector
	// Objective is f(X).
	Objective float64
	// GapBound is the final duality-gap bound m/t.
	GapBound float64
	// OuterIters and NewtonIters count barrier and Newton steps taken.
	OuterIters, NewtonIters int
	// Converged reports whether GapBound ≤ Tol was reached.
	Converged bool
}

// Minimize runs the barrier method from the strictly feasible point x0.
func Minimize(p Problem, x0 linalg.Vector, opts Options) (Result, error) {
	if p.N <= 0 || p.Objective == nil || p.Gradient == nil {
		return Result{}, fmt.Errorf("%w: need N>0, Objective, Gradient", ErrBadProblem)
	}
	if len(x0) != p.N {
		return Result{}, fmt.Errorf("%w: x0 has %d entries, want %d", ErrDimension, len(x0), p.N)
	}
	for i, c := range p.Constraints {
		if c.Value == nil || c.Gradient == nil {
			return Result{}, fmt.Errorf("%w: constraint %d lacks Value/Gradient", ErrBadProblem, i)
		}
		if v := c.Value(x0); v >= 0 || math.IsNaN(v) {
			return Result{}, fmt.Errorf("%w: constraint %d value %g", ErrInfeasibleStart, i, v)
		}
	}
	opts = opts.withDefaults()

	x := x0.Clone()
	m := float64(len(p.Constraints))
	t := initialT(opts.T0, m, p.Objective(x0))
	// GapBound stays +Inf until the first completed centering certifies a
	// bound (0 for unconstrained problems, which have no gap).
	res := Result{}
	if m > 0 {
		res.GapBound = math.Inf(1)
	}

	grad := linalg.NewVector(p.N)
	cgrad := linalg.NewVector(p.N)
	hess := linalg.NewMatrix(p.N, p.N)
	// Per-iteration scratch, hoisted out of the Newton loop: the
	// line-search candidate, the constraint-Hessian accumulator, and the
	// ridged trial matrix + rhs of the Newton solve.
	cand := linalg.NewVector(p.N)
	hscratch := linalg.NewMatrix(p.N, p.N)
	trial := linalg.NewMatrix(p.N, p.N)
	rhs := linalg.NewVector(p.N)
	// xcent snapshots the iterate after each completed centering — the
	// rollback target when a later centering stalls at float64 resolution,
	// so the reported gap bound m/t always describes the returned point.
	xcent := linalg.NewVector(p.N)
	haveCenter := false

	for outer := 0; outer < opts.MaxOuter; outer++ {
		res.OuterIters++

		// Inner Newton loop on φ_t. centered reports whether this t's
		// centering reached the Newton-decrement criterion; a centering
		// that instead hits float64 resolution (failed line search,
		// stagnation, norm-phase stall, iteration cap) leaves the iterate
		// between central points, where the m/t gap bound does not hold —
		// the solve then rolls back to the last completed centering and
		// stops.
		centered := false
		stagnant := 0
		for inner := 0; inner < opts.MaxNewton; inner++ {
			phi, ok := evalBarrier(p, x, t, grad, cgrad, hess, hscratch)
			if !ok {
				return res, fmt.Errorf("convexopt: barrier undefined at interior point (bug in caller's derivatives?)")
			}

			step, err := newtonStep(hess, grad, trial, rhs)
			if err != nil {
				return res, fmt.Errorf("convexopt: newton system: %w", err)
			}
			lambda2, err := grad.Dot(step)
			if err != nil {
				return res, err
			}
			lambda2 = -lambda2 // step = -H⁻¹∇φ ⇒ ∇φᵀstep = -λ²
			if lambda2/2 <= opts.NewtonTol {
				centered = true
				break
			}
			if math.IsNaN(lambda2) {
				return res, fmt.Errorf("convexopt: newton decrement is NaN")
			}
			res.NewtonIters++

			// Backtracking line search keeping strict feasibility.
			const alpha, beta = 0.25, 0.5
			s := 1.0
			improved := false
			achieved := 0.0
			for ls := 0; ls < 60; ls++ {
				if err := cand.CopyFrom(x); err != nil {
					return res, err
				}
				if err := cand.AXPY(s, step); err != nil {
					return res, err
				}
				if !strictlyFeasible(p, cand) {
					s *= beta
					continue
				}
				candPhi := barrierValue(p, cand, t)
				if math.IsNaN(candPhi) || candPhi > phi-alpha*s*lambda2 {
					s *= beta
					continue
				}
				x, cand = cand, x
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
			centered, err = normPhase(p, t, opts, &x, &cand, grad, cgrad, hess, hscratch, trial, rhs)
			if err != nil {
				return res, err
			}
			break
		}

		if !centered {
			if haveCenter {
				copy(x, xcent)
			}
			break
		}
		res.GapBound = m / t
		copy(xcent, x)
		haveCenter = true
		if m == 0 || res.GapBound <= opts.Tol {
			res.Converged = true
			break
		}
		t *= opts.Mu
	}

	res.X = x
	res.Objective = p.Objective(x)
	if m == 0 {
		res.GapBound = 0
	}
	return res, nil
}

// initialT resolves the starting barrier parameter: the caller's t0 when
// positive, otherwise m / (5% of |f(x0)|) capped at 1 — the first
// centering then targets a gap bound proportionate to the objective
// scale, instead of creeping along the boundary when |f| is many orders
// of magnitude above 1.
func initialT(t0, m, f0 float64) float64 {
	if t0 > 0 {
		return t0
	}
	f0 = math.Abs(f0)
	if m > 0 && f0 > 1 {
		return math.Min(1, m/(0.05*f0))
	}
	return 1
}

// evalBarrier computes φ_t(x) and fills grad/hess. scratch is an n×n
// accumulator reused for the objective and constraint Hessians. Returns
// ok=false when a log argument is non-positive.
func evalBarrier(p Problem, x linalg.Vector, t float64, grad, cgrad linalg.Vector, hess, scratch *linalg.Matrix) (float64, bool) {
	n := p.N
	grad.Zero()
	hess.Zero()

	phi := t * p.Objective(x)
	p.Gradient(x, grad)
	for i := range grad {
		grad[i] *= t
	}
	if p.Hessian != nil {
		scratch.Zero()
		p.Hessian(x, scratch)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				hess.Add(i, j, t*scratch.At(i, j))
			}
		}
	}

	for _, c := range p.Constraints {
		g := c.Value(x)
		if g >= 0 || math.IsNaN(g) {
			return 0, false
		}
		phi -= math.Log(-g)

		cgrad.Zero()
		c.Gradient(x, cgrad)

		// ∇φ += ∇g/(−g);  ∇²φ += ∇g∇gᵀ/g² − ∇²g/g.
		inv := 1 / (-g)
		for i := 0; i < n; i++ {
			grad[i] += cgrad[i] * inv
		}
		for i := 0; i < n; i++ {
			if cgrad[i] == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				hess.Add(i, j, cgrad[i]*cgrad[j]*inv*inv)
			}
		}
		if c.Hessian != nil {
			scratch.Zero()
			c.Hessian(x, scratch)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					hess.Add(i, j, scratch.At(i, j)*inv)
				}
			}
		}
	}
	return phi, true
}

// normPhase finishes a centering whose φ-value line search hit float64
// resolution: near the central point the barrier value t·f(x) − Σ log(·)
// dwarfs the decreases a Newton step makes, so the Armijo test cannot
// certify progress even though the iterate is still converging. The norm
// phase instead accepts (feasibility-damped) Newton steps as long as the
// Newton decrement λ² keeps shrinking — a quantity computed from
// gradients, free of the cancellation — until the decrement criterion is
// met (centered) or λ² stops improving (genuinely stalled). x and cand
// are swapped in place as steps are accepted.
func normPhase(p Problem, t float64, opts Options, x, cand *linalg.Vector,
	grad, cgrad linalg.Vector, hess, hscratch, trial *linalg.Matrix, rhs linalg.Vector) (bool, error) {
	eval := func(at linalg.Vector) (float64, error) {
		if _, ok := evalBarrier(p, at, t, grad, cgrad, hess, hscratch); !ok {
			return 0, fmt.Errorf("convexopt: barrier undefined at interior point (bug in caller's derivatives?)")
		}
		step, err := newtonStep(hess, grad, trial, rhs)
		if err != nil {
			return 0, err
		}
		l2, err := grad.Dot(step)
		if err != nil {
			return 0, err
		}
		copy(rhs, step) // keep the step; rhs doubles as its carrier
		return -l2, nil
	}
	lambda2, err := eval(*x)
	if err != nil {
		return false, err
	}
	for iter := 0; iter < 40; iter++ {
		if lambda2/2 <= opts.NewtonTol {
			return true, nil
		}
		s := 1.0
		for ; s > 1e-12; s *= 0.5 {
			if err := (*cand).CopyFrom(*x); err != nil {
				return false, err
			}
			if err := (*cand).AXPY(s, rhs); err != nil {
				return false, err
			}
			if strictlyFeasible(p, *cand) {
				break
			}
		}
		if s <= 1e-12 {
			return false, nil
		}
		l2, err := eval(*cand)
		if err != nil {
			return false, err
		}
		// Require genuine decrement reduction; NaN or growth means the
		// step left the quadratic basin and the phase must stop.
		if !(l2 < 0.9*lambda2) {
			return false, nil
		}
		*x, *cand = *cand, *x
		lambda2 = l2
	}
	return false, nil
}

// barrierValue computes φ_t(x) only; NaN when infeasible.
func barrierValue(p Problem, x linalg.Vector, t float64) float64 {
	phi := t * p.Objective(x)
	for _, c := range p.Constraints {
		g := c.Value(x)
		if g >= 0 || math.IsNaN(g) {
			return math.NaN()
		}
		phi -= math.Log(-g)
	}
	return phi
}

func strictlyFeasible(p Problem, x linalg.Vector) bool {
	for _, c := range p.Constraints {
		if g := c.Value(x); g >= 0 || math.IsNaN(g) {
			return false
		}
	}
	return true
}

// newtonStep solves H·step = −grad, adding a diagonal ridge when H is not
// numerically positive definite. The ridge scales with the largest diagonal
// entry: near-active constraints contribute rank-one barrier terms many
// orders of magnitude above the rest of the Hessian, and only a
// proportionate ridge restores numerical rank. trial and rhs are
// caller-owned scratch (overwritten).
func newtonStep(h *linalg.Matrix, grad linalg.Vector, trial *linalg.Matrix, rhs linalg.Vector) (linalg.Vector, error) {
	for i := range grad {
		rhs[i] = -grad[i]
	}
	maxDiag := 1.0
	for i := 0; i < h.Rows(); i++ {
		if d := math.Abs(h.At(i, i)); d > maxDiag {
			maxDiag = d
		}
	}
	ridge := 0.0
	for attempt := 0; attempt < 16; attempt++ {
		if err := trial.CopyFrom(h); err != nil {
			return nil, err
		}
		if ridge > 0 {
			for i := 0; i < trial.Rows(); i++ {
				trial.Add(i, i, ridge)
			}
		}
		step, err := trial.SolveCholesky(rhs)
		if err == nil {
			return step, nil
		}
		if ridge == 0 {
			ridge = 1e-14 * maxDiag
		} else {
			ridge *= 100
		}
	}
	// Last resort: LU on a strongly ridged system (gradient-like step).
	if err := trial.CopyFrom(h); err != nil {
		return nil, err
	}
	for i := 0; i < trial.Rows(); i++ {
		trial.Add(i, i, maxDiag)
	}
	return trial.SolveLU(rhs)
}

// KKTResiduals reports stationarity and complementary-slackness residuals
// at x for diagnostics: the max-norm of ∇f + Σ λ_i ∇g_i with
// λ_i = 1/(−t·g_i), and the largest |λ_i·g_i| = 1/t.
func KKTResiduals(p Problem, x linalg.Vector, t float64) (stationarity, complementarity float64, err error) {
	if len(x) != p.N {
		return 0, 0, fmt.Errorf("%w: x has %d entries, want %d", ErrDimension, len(x), p.N)
	}
	grad := linalg.NewVector(p.N)
	p.Gradient(x, grad)
	cgrad := linalg.NewVector(p.N)
	for _, c := range p.Constraints {
		g := c.Value(x)
		if g >= 0 {
			return 0, 0, ErrInfeasibleStart
		}
		lambda := 1 / (-t * g)
		for i := range cgrad {
			cgrad[i] = 0
		}
		c.Gradient(x, cgrad)
		for i := range grad {
			grad[i] += lambda * cgrad[i]
		}
		if cs := math.Abs(lambda * g); cs > complementarity {
			complementarity = cs
		}
	}
	return grad.NormInf(), complementarity, nil
}
