package strategy

import "math"

// ConvexRisky solves the further relaxation the paper mentions but
// declines to evaluate (§IV): drop the no-shorting constraints
// Δout ≥ Δin entirely, keeping only a ≥ 0. The arbitrageur may then end
// a round short of some tokens (borrowing them), which is risky but
// bounds the monetized profit of any safe strategy from above.
//
// Without the flow constraints the problem decouples per hop:
//
//	max_a  P_out·F(a) − P_in·a,  a ≥ 0
//
// whose stationary point is closed-form: F'(a*) = P_in/P_out gives
// a* = (√(γ·x·y·P_out/P_in) − x)/γ, clamped at 0. A hop whose output is
// priced 0 gets a* = 0 (any input is a pure loss), and so does a hop whose
// input is priced 0: that would send the input to infinity, so the hop
// is skipped because an unpriced input makes "profit" ill-defined.
//
// The result's NetTokens may be negative (short positions); Monetized is
// the net dollar value, always ≥ the safe Convex result.
func ConvexRisky(l *Loop, prices PriceMap) (Result, error) {
	return solveLoop(ConvexRiskyStrategy{}, NameConvexRisky, l, prices)
}

func (ConvexRiskyStrategy) plan(w *convexWS) (int, error) {
	w.risky()
	return -1, nil
}

// risky stages in w.plan each hop's decoupled optimum.
//
//arblint:hotpath
func (w *convexWS) risky() {
	p := &w.prob
	for i := range w.plan {
		a := 0.0
		if p.POut[i] > 0 && p.PIn[i] > 0 {
			a = (math.Sqrt(p.Gamma[i]*p.RIn[i]*p.ROut[i]*p.POut[i]/p.PIn[i]) - p.RIn[i]) / p.Gamma[i]
			if a < 0 {
				a = 0
			}
		}
		w.plan[i] = a
	}
}
