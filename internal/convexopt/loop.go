// The reduced arbitrage-loop problem (paper problem (8), per-hop-input
// form):
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
// LoopProblem stages the per-hop coefficients in flat arrays. The
// strategy package solves it exactly from those arrays (a KKT-certified
// closed form); Generic expands it into the closure-based Problem that
// Minimize, the barrier method of paper §VII, solves as the reference.
package convexopt

import (
	"fmt"

	"arbloop/internal/linalg"
)

// LoopProblem is the reduced problem (8) over one arbitrage loop of n
// CPMM hops, stored as flat per-hop coefficient slices (index = hop).
// No closures, no interfaces, no error-wrapped curve evaluations — the
// exact solve reads these arrays directly.
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
// reference solver (Minimize) and the KKT diagnostics consume: n flow
// constraints, then n non-negativity constraints.
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
