package strategy

import (
	"fmt"
	"slices"

	"arbloop/internal/numeric"
)

// Canonical strategy names, as returned by Strategy.Name and recorded in
// Result.Strategy. These are also the registry keys (see registry.go).
const (
	NameTraditional = "Traditional"
	NameMaxPrice    = "MaxPrice"
	NameMaxMax      = "MaxMax"
	NameConvex      = "ConvexOptimization"
	NameConvexRisky = "ConvexRisky"
)

// Result is the outcome of running a strategy on a loop.
type Result struct {
	// Strategy is the canonical name of the strategy that produced the
	// result (one of the Name* constants for built-ins).
	Strategy string
	// Loop is the loop the plan indexes (for single-start strategies it is
	// the rotation anchored at StartToken).
	Loop *Loop
	// StartToken is the input token of single-start strategies; empty for
	// ConvexOptimization, whose plan may net profit in several tokens.
	StartToken string
	// Input is the start-token input amount (single-start strategies).
	Input float64
	// Plan holds per-hop input/output amounts.
	Plan TradePlan
	// NetTokens is the net amount acquired per token.
	NetTokens map[string]float64
	// Monetized is Σ_t price(t)·net(t) in USD.
	Monetized float64
}

// Traditional maximizes P_start·(Δout − Δin) for a fixed start token using
// the closed-form Möbius optimum. This is the paper's "traditional
// strategy" with the profit monetized post hoc.
func Traditional(l *Loop, start string, prices PriceMap) (Result, error) {
	return solveLoop(startAt(start), NameTraditional, l, prices)
}

// startAt is Traditional's kernel: the closed-form rotation from the
// named token.
type startAt string

func (s startAt) plan(w *convexWS) (int, error) {
	r := slices.Index(w.tok, string(s))
	if r < 0 {
		return 0, fmt.Errorf("%w: %q", ErrUnknownStart, string(s))
	}
	w.rotation(r, w.plan)
	return r, nil
}

// TraditionalAll runs Traditional from every token of the loop, in loop
// order. Fig. 5 plots each of these against the MaxMax value.
func TraditionalAll(l *Loop, prices PriceMap) ([]Result, error) {
	out := make([]Result, 0, l.Len())
	for _, tok := range l.tokens {
		r, err := Traditional(l, tok, prices)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// MaxPrice starts arbitrage from the loop token with the highest CEX
// price (first such token on ties). The paper shows this heuristic is
// unreliable (Figs. 2 and 6).
func MaxPrice(l *Loop, prices PriceMap) (Result, error) {
	return solveLoop(MaxPriceStrategy{}, NameMaxPrice, l, prices)
}

func (MaxPriceStrategy) plan(w *convexWS) (int, error) {
	r := 0
	for i, p := range w.prob.PIn {
		if p > w.prob.PIn[r] {
			r = i
		}
	}
	w.rotation(r, w.plan)
	return r, nil
}

// MaxMax evaluates Traditional's plan from every token and returns the
// rotation with the largest monetized profit (paper eq. (6)), found by
// the search Convex starts from. Ties keep the earliest rotation, making
// the result deterministic.
func MaxMax(l *Loop, prices PriceMap) (Result, error) {
	return solveLoop(MaxMaxStrategy{}, NameMaxMax, l, prices)
}

func (MaxMaxStrategy) plan(w *convexWS) (int, error) {
	r, _ := w.bestRotation()
	return r, nil
}

// optimalInputVariants are the ablation baselines for the single-start
// optimum (DESIGN.md §4). All solve max_Δ (F(Δ) − Δ) on the anchored loop.

// OptimalInputClosedForm returns Δ* = (√(AB) − B)/C from the composed
// Möbius map.
func OptimalInputClosedForm(l *Loop) (float64, error) {
	m, err := l.Mobius()
	if err != nil {
		return 0, err
	}
	return m.OptimalInput(), nil
}

// OptimalInputBisection solves dΔout/dΔin = 1 by bisection, the method the
// paper describes in §III.
func OptimalInputBisection(l *Loop) (float64, error) {
	m, err := l.Mobius()
	if err != nil {
		return 0, err
	}
	if !m.Profitable() {
		return 0, nil
	}
	f := func(d float64) float64 { return m.Deriv(d) - 1 }
	// Bracket: marginal profit is positive at 0 and negative for large Δ.
	scale := m.B / m.C
	hi, err := numeric.ExpandBracketUp(f, 1e-9*scale+1e-12, 1e12*scale+1)
	if err != nil {
		return 0, err
	}
	return numeric.Bisect(f, 0, hi, 1e-12*scale)
}

// OptimalInputGolden maximizes the profit F(Δ) − Δ directly with
// golden-section search.
func OptimalInputGolden(l *Loop) (float64, error) {
	m, err := l.Mobius()
	if err != nil {
		return 0, err
	}
	if !m.Profitable() {
		return 0, nil
	}
	scale := m.B / m.C
	hi, err := numeric.ExpandBracketUp(func(d float64) float64 { return m.Deriv(d) - 1 }, 1e-9*scale+1e-12, 1e12*scale+1)
	if err != nil {
		return 0, err
	}
	return numeric.MaximizeGolden(m.ProfitAt, 0, hi, 1e-12*scale)
}

// VerifyNoArbEquivalence checks the paper's §IV theorem on a loop: when
// the MaxMax strategy finds no profit, ConvexOptimization must find no
// profit either (and vice versa — Convex ≥ MaxMax makes the converse
// trivial). It returns an error when the theorem is violated beyond tol.
func VerifyNoArbEquivalence(l *Loop, prices PriceMap, tol float64) error {
	mm, err := MaxMax(l, prices)
	if err != nil {
		return err
	}
	cv, err := Convex(l, prices)
	if err != nil {
		return err
	}
	if mm.Monetized <= tol && cv.Monetized > tol {
		return fmt.Errorf("strategy: no-arb equivalence violated: MaxMax %.3g but Convex %.3g",
			mm.Monetized, cv.Monetized)
	}
	if cv.Monetized+tol < mm.Monetized {
		return fmt.Errorf("strategy: dominance violated: Convex %.3g < MaxMax %.3g",
			cv.Monetized, mm.Monetized)
	}
	return nil
}
