package strategy

import (
	"fmt"
	"math"
	"sync"

	"arbloop/internal/amm"
	"arbloop/internal/convexopt"
)

// convexWS is the pooled per-call scratch every strategy computes in: the
// staged problem, the plan being built, and Convex's segment table.
// sync.Pool recycles it across goroutines, so a warm caller allocates
// nothing beyond the Result it gets back.
type convexWS struct {
	prob convexopt.LoopProblem
	plan []float64 // per-hop inputs of the plan to materialize, loop indexing
	amts []float64 // per-hop inputs of the rotation being walked
	// segX and segY hold, at s·n+e, the closed-form input of the segment
	// from free token s to free token e (e = s: the whole loop) and that
	// input walked through the segment's hops into e.
	segX, segY []float64
}

var convexWSPool = sync.Pool{New: func() any { return new(convexWS) }}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// StageProblem stages the loop's problem (8) in p: each hop's fee
// multiplier γ, its reserves oriented for the hop, and the CEX prices of
// its input and output tokens. Each price is read once and rejected with
// the error PriceMap.Validate returns for it. Every strategy solves
// exactly the problem staged here.
func StageProblem(p *convexopt.LoopProblem, l *Loop, prices PriceMap) error {
	n := l.Len()
	p.Reset(n)
	for i, h := range l.hops {
		var err error
		if p.PIn[i], err = prices.price(h.TokenIn); err != nil {
			return err
		}
		if p.RIn[i], p.ROut[i], err = h.Pool.Reserves(h.TokenIn); err != nil {
			return err
		}
		p.Gamma[i] = h.Pool.Gamma()
	}
	for i := range p.POut {
		p.POut[i] = p.PIn[(i+1)%n] // NewLoop: hop i outputs hop i+1's input
	}
	return nil
}

// staged returns a pooled workspace holding the loop's staged problem,
// its plan scratch sized. The caller puts it back in convexWSPool.
func staged(l *Loop, prices PriceMap) (*convexWS, error) {
	w := convexWSPool.Get().(*convexWS)
	if err := w.stage(l, prices); err != nil {
		convexWSPool.Put(w)
		return nil, err
	}
	return w, nil
}

// stage stages the loop's problem in w and sizes the plan scratch.
func (w *convexWS) stage(l *Loop, prices PriceMap) error {
	if err := StageProblem(&w.prob, l, prices); err != nil {
		return err
	}
	w.plan = growFloats(w.plan, l.Len())
	w.amts = growFloats(w.amts, l.Len())
	return nil
}

// compose appends hop i to the Möbius map (A, B, C), exactly as
// amm.Mobius.Compose does on the pool's coefficients.
//
//arblint:hotpath
func (w *convexWS) compose(A, B, C float64, i int) (float64, float64, float64) {
	a2, b2, c2 := w.prob.Gamma[i]*w.prob.ROut[i], w.prob.RIn[i], w.prob.Gamma[i]
	return a2 * A, B * b2, b2*C + c2*A
}

// rotation stages in dst the closed-form single-start plan from token r,
// Traditional's, and returns its monetized profit. The loop composed
// from r is one Möbius map G(x) = Ax/(B+Cx), so the optimal input is
// x = (√(AB) − B)/C, or 0 when A ≤ B (no arbitrage). Intermediate hops
// consume exactly what the previous one produced, so only the start token
// nets: profit = P_r·(G(x) − x).
//
//arblint:hotpath
func (w *convexWS) rotation(r int, dst []float64) float64 {
	n := w.prob.N()
	A, B, C := 1.0, 1.0, 0.0
	for k := 0; k < n; k++ {
		A, B, C = w.compose(A, B, C, (r+k)%n)
	}
	input := 0.0
	if A > B && C > 0 {
		input = (math.Sqrt(A*B) - B) / C
	}
	amt := input
	for k := 0; k < n; k++ {
		i := (r + k) % n
		dst[i] = amt
		amt = w.prob.F(i, amt)
	}
	return w.prob.PIn[r] * (amt - input)
}

// bestRotation stages in w.plan the rotation with the largest monetized
// profit (MaxMax, paper eq. (6)) and returns its start token and profit.
// Rotations are scanned in loop order and ties keep the earliest.
//
//arblint:hotpath
func (w *convexWS) bestRotation() (start int, profit float64) {
	for r := 0; r < w.prob.N(); r++ {
		if v := w.rotation(r, w.amts); r == 0 || v > profit {
			start, profit = r, v
			copy(w.plan, w.amts)
		}
	}
	return start, profit
}

// result materializes the plan staged in w.plan as the call's Result. A
// single-start strategy passes its start token's index, and the Result
// carries the loop rotated to that token; start < 0 keeps the loop's own
// indexing. Outputs come from the staged curves, nets from the walked
// amounts, and the profit sums price·net in the result loop's token
// order, as Monetize does. A non-finite amount always leaves some net,
// and so the profit, non-finite (prices are finite), so checking the
// profit rejects every plan that is not finite.
func (w *convexWS) result(name string, l *Loop, start int) (Result, error) {
	n := l.Len()
	off := max(start, 0)
	res := Result{Strategy: name, Loop: l, NetTokens: make(map[string]float64, n)}
	res.Plan = TradePlan{Inputs: make([]float64, n), Outputs: make([]float64, n)}
	for k := 0; k < n; k++ {
		i := (off + k) % n
		res.Plan.Inputs[k] = w.plan[i]
		res.Plan.Outputs[k] = w.prob.F(i, w.plan[i])
	}
	for k := 0; k < n; k++ {
		i := (off + k) % n
		net := res.Plan.Outputs[(k+n-1)%n] - res.Plan.Inputs[k]
		res.NetTokens[l.tokens[i]] = net
		res.Monetized += net * w.prob.PIn[i]
	}
	if !(math.Abs(res.Monetized) <= math.MaxFloat64) {
		return Result{}, fmt.Errorf("strategy: %s plan on %s is not finite (profit %g): %w", name, l, res.Monetized, amm.ErrNegativeAmount)
	}
	if start >= 0 {
		res.Loop, res.StartToken, res.Input = l.Rotate(start), l.tokens[start], w.plan[start]
	}
	return res, nil
}
