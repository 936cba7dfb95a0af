package strategy

import (
	"math"
	"sync"

	"arbloop/internal/convexopt"
)

// ConvexOptions tunes ConvexStrategy.
type ConvexOptions struct {
	// ColdStart makes ConvexStrategy.OptimizeWarm (the delta-scan path)
	// ignore previous-solution warm starts and solve cold with Convex, so
	// repeated solves of the same state are bit-reproducible.
	ColdStart bool
}

// Convex solves the paper's problem (8) on the loop: maximize
// Σ_t P_t·(net amount of token t) subject to the per-pool CPMM constraints
// and per-token no-shorting constraints Δout ≥ Δin.
//
// Reduction (DESIGN.md §5): at the optimum every pool constraint is tight
// (more output never hurts), so the decision variables shrink to the
// per-hop inputs a ∈ R^n_+ with
//
//	maximize   Σ_i [ P_out(i)·F_i(a_i) − P_tok(i)·a_i ]
//	subject to F_i(a_i) ≥ a_{(i+1) mod n}   (no shorting any token)
//	           a_i ≥ 0
//
// The objective is concave (F_i concave, prices ≥ 0) and the constraints
// convex, matching the paper's convexity claim. When the loop is not an
// arbitrage loop the feasible set collapses to {0} (the §IV no-arbitrage
// theorem), which the implementation returns directly without invoking the
// solver.
//
// The solve runs on the structured fast path — precomputed per-hop CPMM
// coefficients, analytic F/F′/F″, and an O(n) cyclic-KKT Newton step
// with all scratch pooled, so a solve is allocation-free after warm-up
// (see convexopt.SolveLoop). The result never degrades below the MaxMax
// plan: when the warm start cannot find an interior point (near-degenerate
// loops with price product barely above 1) or the solver fails or
// underperforms, the always-feasible MaxMax plan is returned as the convex
// result instead of an error — one degenerate loop must not sink a
// whole-market scan.
func Convex(l *Loop, prices PriceMap) (Result, error) {
	return convexSolve(l, prices, nil)
}

// ConvexWarm is Convex warm-started from a previous result for the same
// loop (typically the previous block's optimum, with reserves slightly
// moved). The previous plan is re-feasibilized by uniform shrinking —
// the shifted point is strictly interior again after a small shrink
// because F is strictly concave — and used as the barrier start; when no
// shrink factor lands inside (reserves moved too much, orientation
// changed, zero plan) or prev is nil the solve falls back to the standard
// MaxMax warm start. The optimum is independent of the start point up to
// solver tolerance, so warm starts change latency, not correctness (call
// Convex to pin bit-reproducibility instead).
func ConvexWarm(l *Loop, prices PriceMap, prev *Result) (Result, error) {
	return convexSolve(l, prices, prev)
}

func convexSolve(l *Loop, prices PriceMap, prev *Result) (Result, error) {
	if err := prices.Validate(l); err != nil {
		return Result{}, err
	}
	n := l.Len()

	profitable, err := l.Profitable()
	if err != nil {
		return Result{}, err
	}
	if !profitable {
		// §IV: no arbitrage ⇒ the unique optimum is the zero plan.
		plan := TradePlan{Inputs: make([]float64, n), Outputs: make([]float64, n)}
		return Result{
			Strategy:  NameConvex,
			Loop:      l,
			Plan:      plan,
			NetTokens: plan.NetTokens(l),
			Monetized: 0,
		}, nil
	}
	return convexStructured(l, prices, prev)
}

// convexSolverOptions are the barrier parameters of every convex solve:
// the solver defaults with a higher Newton cap per centering.
var convexSolverOptions = convexopt.Options{MaxNewton: 300}

// convexWS is the pooled per-solve scratch of the structured fast path:
// the coefficient arrays, the solver workspace, and the warm-start
// staging vectors. sync.Pool recycles them across goroutines, so a warm
// scanner solves with no allocation beyond the result itself.
type convexWS struct {
	prob convexopt.LoopProblem
	ws   convexopt.LoopWorkspace
	base []float64 // warm-start plan in loop indexing, before shrinking
	x0   []float64 // shrunk strictly-interior start
	amts []float64 // per-hop amounts scratch for the rotation scan
}

var convexWSPool = sync.Pool{New: func() any { return new(convexWS) }}

func (w *convexWS) reset(n int) {
	w.prob.Reset(n)
	w.base = growFloats(w.base, n)
	w.x0 = growFloats(w.x0, n)
	w.amts = growFloats(w.amts, n)
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// convexStructured is the fast path: coefficients once, analytic curves,
// O(n) Newton steps, pooled scratch.
func convexStructured(l *Loop, prices PriceMap, prev *Result) (Result, error) {
	n := l.Len()
	tel := Telemetry()
	tel.Solves.Inc()
	w := convexWSPool.Get().(*convexWS)
	defer convexWSPool.Put(w)
	w.reset(n)

	for i := 0; i < n; i++ {
		h := l.Hop(i)
		rin, rout, err := h.Pool.Reserves(l.tokens[i])
		if err != nil {
			return Result{}, err
		}
		out, err := h.TokenOut()
		if err != nil {
			return Result{}, err
		}
		w.prob.Gamma[i] = h.Pool.Gamma()
		w.prob.RIn[i] = rin
		w.prob.ROut[i] = rout
		w.prob.PIn[i] = prices[l.tokens[i]]
		w.prob.POut[i] = prices[out]
	}

	// Start point: the previous solution when it re-feasibilizes, the
	// MaxMax plan otherwise; both shrink-to-interior. bestRotation stages
	// the best single-rotation plan in w.base — the warm-start base, the
	// quality floor, and the always-feasible fallback plan all at once.
	started := prev != nil && w.startFromPrev(l, prev)
	if prev != nil {
		if started {
			tel.WarmHits.Inc()
		} else {
			tel.WarmMisses.Inc()
		}
	}
	mmProfit := w.bestRotation(l)
	if !started && !w.shrinkToInterior([]float64{0.05, 0.15, 0.4, 0.75}) {
		// Near-degenerate loop: no strictly interior point is reachable
		// in float64 (price product barely above 1). Serve the MaxMax
		// plan instead of aborting the scan (it walks the curves exactly,
		// so it is feasible even when its interior has vanished).
		tel.Fallbacks.Inc()
		return w.resultFromInputs(l, prices, w.base)
	}

	res, err := convexopt.SolveLoop(&w.prob, w.x0, convexSolverOptions, &w.ws)
	if err != nil {
		tel.Fallbacks.Inc()
		return w.resultFromInputs(l, prices, w.base)
	}
	tel.NewtonIters.Add(uint64(res.NewtonIters))
	tel.OuterIters.Add(uint64(res.OuterIters))

	solved, err := w.resultFromInputs(l, prices, res.X)
	if err != nil {
		return Result{}, err
	}
	if !(solved.Monetized >= mmProfit) {
		// The solve stopped short of the single-rotation optimum — for a
		// loop whose convex optimum is the single rotation, the barrier
		// approaches it from the interior and lands a gap below. The
		// MaxMax plan is the better answer and preserves Convex ≥ MaxMax.
		tel.Fallbacks.Inc()
		return w.resultFromInputs(l, prices, w.base)
	}
	return solved, nil
}

// resultFromInputs materializes a convex result from per-hop inputs in
// loop indexing: outputs via the analytic curves, net tokens, dust
// clamping, loop-order monetization.
func (w *convexWS) resultFromInputs(l *Loop, prices PriceMap, inputs []float64) (Result, error) {
	n := l.Len()
	plan := TradePlan{Inputs: make([]float64, n), Outputs: make([]float64, n)}
	for i := 0; i < n; i++ {
		a := inputs[i]
		if !(a > 0) {
			a = 0
		}
		plan.Inputs[i] = a
		plan.Outputs[i] = w.prob.F(i, a)
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
	return Result{
		Strategy:  NameConvex,
		Loop:      l,
		Plan:      plan,
		NetTokens: net,
		Monetized: mon,
	}, nil
}

// prevShrinkEtas is the shrink schedule for previous-solution warm
// starts — tighter than the MaxMax schedule, because the previous
// optimum is typically a hair outside the new feasible set and a small
// nudge keeps the central path short.
var prevShrinkEtas = []float64{0.01, 0.05, 0.2, 0.5}

// alignPrevInputs maps prev's per-hop inputs onto l's hop indexing,
// writing them into dst (length l.Len()). prev.Loop is l itself for
// structured convex results, a rotation of it for MaxMax-shaped results;
// alignment anchors on the rotation's first token. Reports false when
// the loops don't share length and token sequence.
func alignPrevInputs(l *Loop, prev *Result, dst []float64) bool {
	n := l.Len()
	if prev.Loop == nil || prev.Loop.Len() != n || len(prev.Plan.Inputs) != n {
		return false
	}
	offset := 0
	if prev.Loop != l {
		offset = -1
		anchor := prev.Loop.Token(0)
		for i := 0; i < n; i++ {
			if l.Token(i) == anchor {
				offset = i
				break
			}
		}
		if offset < 0 {
			return false
		}
		for i := 0; i < n; i++ {
			if prev.Loop.Token(i) != l.Token((i+offset)%n) {
				return false
			}
		}
	}
	for i := 0; i < n; i++ {
		dst[(i+offset)%n] = prev.Plan.Inputs[i]
	}
	return true
}

// startFromPrev stages prev's plan as the warm start and shrinks it to
// the interior.
func (w *convexWS) startFromPrev(l *Loop, prev *Result) bool {
	return alignPrevInputs(l, prev, w.base) && w.shrinkToInterior(prevShrinkEtas)
}

// bestRotation runs the closed-form single-start optimum from every
// rotation of the loop — MaxMax, but allocation-free against the staged
// coefficients — writes the best rotation's per-hop inputs into w.base,
// and returns its monetized profit. Rotations are scanned in loop order
// and ties keep the earliest, mirroring MaxMax's determinism.
func (w *convexWS) bestRotation(l *Loop) float64 {
	n := l.Len()
	best := math.Inf(-1)
	for r := 0; r < n; r++ {
		// Compose the Möbius maps F(Δ) = AΔ/(B+CΔ) of hops r, r+1, …
		A, B, C := 1.0, 1.0, 0.0
		for k := 0; k < n; k++ {
			i := (r + k) % n
			a2, b2, c2 := w.prob.Gamma[i]*w.prob.ROut[i], w.prob.RIn[i], w.prob.Gamma[i]
			A, B, C = a2*A, B*b2, b2*C+c2*A
		}
		input := 0.0
		if A > B && C > 0 {
			input = (math.Sqrt(A*B) - B) / C
		}
		// Walk the plan and monetize: only the start and end amounts are
		// net (intermediate hops consume exactly what the previous one
		// produced), so profit = P_start·(final − initial amount).
		amt := input
		for k := 0; k < n; k++ {
			i := (r + k) % n
			w.amts[i] = amt
			amt = w.prob.F(i, amt)
		}
		profit := w.prob.PIn[r] * (amt - input)
		if profit > best {
			best = profit
			copy(w.base, w.amts)
		}
	}
	return best
}

// shrinkToInterior scales w.base by each (1−η) in turn until the point is
// strictly interior, staging the result in w.x0. F strictly concave with
// F(0) = 0 gives F(c·a) > c·F(a) for 0 < c < 1, so a feasible plan turns
// strictly interior under uniform shrinking — unless the loop is so close
// to no-arbitrage that the margin vanishes in float64.
func (w *convexWS) shrinkToInterior(etas []float64) bool {
	n := len(w.base)
	for _, eta := range etas {
		c := 1 - eta
		for i := 0; i < n; i++ {
			w.x0[i] = c * w.base[i]
		}
		if w.prob.Interior(w.x0) {
			return true
		}
	}
	return false
}
