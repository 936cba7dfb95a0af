package strategy

import (
	"fmt"
	"math"
	"math/bits"
)

// ConvexOptions is the type of ConvexStrategy.Options.
//
// Deprecated: no option changes the exact solve. The type remains
// because the perfbench module still sets ColdStart.
type ConvexOptions struct {
	// ColdStart has no effect: a solve never reads a previous result, so
	// repeated solves of the same state are bit-identical.
	ColdStart bool
}

// maxFaceLen is the longest loop whose faces Convex enumerates: 2ⁿ − 1
// faces of up to n segments each. At this length the enumeration takes
// about 20 ms on the loop BenchmarkConvexEnumerateLen12 times at 12.
const maxFaceLen = 20

// Convex solves the paper's problem (8) on the loop exactly: maximize
// Σ_t P_t·(net amount of token t) subject to the per-pool CPMM constraints
// and per-token no-shorting constraints Δout ≥ Δin.
//
// At the optimum every pool constraint is tight (more output never
// hurts), so the decision variables shrink to the per-hop inputs
// a ∈ R^n_+ with
//
//	maximize   Σ_i [ P_out(i)·F_i(a_i) − P_tok(i)·a_i ]
//	subject to F_i(a_i) ≥ a_{(i+1) mod n}   (no shorting any token)
//	           a_i ≥ 0
//
// The objective is concave (F_i concave, prices ≥ 0) and the constraints
// convex, matching the paper's convexity claim. When the loop is not an
// arbitrage loop the feasible set collapses to {0} (the §IV no-arbitrage
// theorem), which is returned directly.
//
// The optimum has a closed form. A face is the set S of tokens allowed a
// positive net. Every other token nets zero, so the hops between two
// consecutive tokens s, e of S compose into one Möbius map
// G(x) = Ax/(B+Cx), and the face splits into one-variable problems
// max P_e·G(x) − P_s·x solved by x = (√(AB·P_e/P_s) − B)/C, clamped at 0
// (the no-trade band of Milionis, Moallemi and Roughgarden). The optimum
// is the best face whose nets all come out ≥ 0. Singleton faces are
// MaxMax's rotations, so Convex takes the best rotation and certifies it
// with the KKT conditions in O(n): walking the shadow prices
// q_{i+1} = q_i / F_i′(a_i) from the rotation's start token, where q
// equals P, the rotation is optimal when q_t ≥ P_t at every other token.
// Only when the certificate fails (about 0.2% of the §VI market's loops)
// are all 2ⁿ − 1 faces enumerated from a table of the n² segments'
// closed-form solutions. That worst case measures about 85 µs at n = 12,
// the longest loop any test solves, against about 1 µs for a certified
// solve (BenchmarkConvexEnumerateLen12; Intel Xeon, 2 CPUs, Go 1.24). A
// loop longer than 20 hops whose certificate fails returns
// ErrLoopTooLong.
//
// Plans are walked hop by hop, so zero-net tokens net exactly zero and
// every net is ≥ 0 exactly. MaxMax's plan is the same kernel's best
// rotation, so Monetized is never below MaxMax's. A solve is
// deterministic and allocates nothing beyond its Result.
func Convex(l *Loop, prices PriceMap) (Result, error) {
	return solveLoop(ConvexStrategy{}, NameConvex, l, prices)
}

func (ConvexStrategy) plan(w *convexWS) (int, error) {
	if !w.profitable() {
		// §IV: no arbitrage ⇒ the unique optimum is the zero plan.
		clear(w.plan)
	} else if !w.solve() {
		return 0, fmt.Errorf("%w: %d hops, at most %d for the convex face enumeration", ErrLoopTooLong, w.prob.N(), maxFaceLen)
	}
	return -1, nil
}

// profitable reports whether the staged loop is an arbitrage loop: the
// product of its hops' spot prices γ·r_out/r_in, multiplied in
// Loop.PriceProduct's order so every loop classifies as it does there,
// exceeds 1.
//
//arblint:hotpath
func (w *convexWS) profitable() bool {
	prod := 1.0
	for i, g := range w.prob.Gamma {
		prod *= g * w.prob.ROut[i] / w.prob.RIn[i]
	}
	return prod > 1
}

// solve stages the optimal per-hop inputs in w.plan: the best rotation
// when the KKT certificate accepts it, the best face otherwise. It
// reports false when the certificate fails on a loop too long to
// enumerate.
//
//arblint:hotpath
func (w *convexWS) solve() bool {
	tel := Telemetry()
	tel.Solves.Inc()
	start, profit := w.bestRotation()
	if w.certified(start) {
		return true
	}
	tel.Enumerations.Inc()
	if w.prob.N() > maxFaceLen {
		return false
	}
	w.enumerate(profit)
	return true
}

// certified reports whether the rotation plan in w.plan, which nets
// profit only in token r, passes the KKT certificate of problem (8).
// Walking the shadow prices q_{i+1} = q_i / F_i′(a_i) around the loop
// from q_r = P_r gives every other token's no-shorting multiplier
// q_t − P_t; the plan is the global optimum when none is negative (KKT
// is sufficient for a concave problem). The comparisons carry no
// tolerance, so a rounding-level miss costs an enumeration, never a wrong
// answer.
//
//arblint:hotpath
func (w *convexWS) certified(r int) bool {
	n := w.prob.N()
	q := w.prob.PIn[r]
	for k := 0; k < n-1; k++ {
		i := (r + k) % n
		q /= w.prob.DF(i, w.plan[i])
		if !(q >= w.prob.POut[i]) {
			return false
		}
	}
	return true
}

// enumerate stages in w.plan the best feasible face, keeping the
// rotation already there (worth best) unless a face is strictly better.
// A face, as a bit mask, is infeasible when one of its tokens is priced
// 0 (that token's input would be unbounded) or a net comes out negative.
//
//arblint:hotpath
func (w *convexWS) enumerate(best float64) {
	n := w.prob.N()
	w.segments()
	unpriced := uint64(0) // bit t set when token t is priced 0
	for t, p := range w.prob.PIn {
		if !(p > 0) {
			unpriced |= 1 << t
		}
	}
	bestFace := uint64(0)
	for face := uint64(1); face < 1<<n; face++ {
		if face&unpriced != 0 {
			continue
		}
		if v, ok := w.faceValue(face); ok && v > best {
			best, bestFace = v, face
		}
	}
	if bestFace != 0 {
		w.walkFace(bestFace)
	}
}

// segments fills the segment table. For each ordered pair of free tokens
// (s, e), the hops from s up to e compose into G(x) = Ax/(B+Cx), and
// P_e·G(x) − P_s·x peaks at x = (√(AB·P_e/P_s) − B)/C, clamped at 0; an
// end token priced 0 clamps the input to 0. The stored output walks x
// through the segment's hops exactly as walkFace replays it.
//
//arblint:hotpath
func (w *convexWS) segments() {
	n := w.prob.N()
	w.segX = growFloats(w.segX, n*n)
	w.segY = growFloats(w.segY, n*n)
	for s := 0; s < n; s++ {
		ps := w.prob.PIn[s]
		A, B, C := 1.0, 1.0, 0.0
		for k := 1; k <= n; k++ {
			A, B, C = w.compose(A, B, C, (s+k-1)%n)
			e := (s + k) % n
			x := 0.0
			if ps > 0 { // an unpriced start never serves: enumerate skips its faces
				if v := (math.Sqrt(A*B*(w.prob.PIn[e]/ps)) - B) / C; v > 0 {
					x = v
				}
			}
			y := x
			for j := 0; j < k; j++ {
				y = w.prob.F((s+j)%n, y)
			}
			w.segX[s*n+e], w.segY[s*n+e] = x, y
		}
	}
}

// faceValue returns the monetized profit of the face's plan and whether
// every net is ≥ 0. The nets come from the segment table, so they are
// the walked plan's nets exactly, and they accumulate in loop-token order
// as Monetize does, so the value is the served Monetized bit for bit.
//
//arblint:hotpath
func (w *convexWS) faceValue(face uint64) (float64, bool) {
	n := w.prob.N()
	prev := bits.Len64(face) - 1 // the last free token precedes the first
	v := 0.0
	for rest := face; rest != 0; rest &= rest - 1 {
		t := bits.TrailingZeros64(rest)
		net := w.segY[prev*n+t] - w.segX[t*n+nextFree(face, t)]
		if !(net >= 0) {
			return 0, false
		}
		v += w.prob.PIn[t] * net
		prev = t
	}
	return v, true
}

// walkFace stages the face's plan in w.plan, walking each segment's
// closed-form input through its hops.
//
//arblint:hotpath
func (w *convexWS) walkFace(face uint64) {
	n := w.prob.N()
	first := bits.TrailingZeros64(face)
	amt := 0.0
	for k := 0; k < n; k++ {
		i := (first + k) % n
		if face&(1<<i) != 0 {
			amt = w.segX[i*n+nextFree(face, i)]
		}
		w.plan[i] = amt
		amt = w.prob.F(i, amt)
	}
}

// nextFree returns the face's next token after t in loop order (t itself
// when it is the face's only token).
//
//arblint:hotpath
func nextFree(face uint64, t int) int {
	if after := face >> (t + 1); after != 0 {
		return t + 1 + bits.TrailingZeros64(after)
	}
	return bits.TrailingZeros64(face)
}
