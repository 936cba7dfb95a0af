package strategy

import (
	"fmt"
	"math"
	"slices"
	"strings"
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
	// tok[i] is hop i's input token: the staged Loop's own token slice,
	// or toks when the loop was staged from a hop program.
	tok, toks []string
	plan      []float64 // per-hop inputs of the plan to materialize, loop indexing
	amts      []float64 // per-hop inputs of the rotation being walked
	// segX and segY hold, at s·n+e, the closed-form input of the segment
	// from free token s to free token e (e = s: the whole loop) and that
	// input walked through the segment's hops into e.
	segX, segY []float64
}

var convexWSPool = sync.Pool{New: func() any { return new(convexWS) }}

// putWS returns w to the pool without keeping the staged loop alive.
func putWS(w *convexWS) {
	w.tok = nil
	convexWSPool.Put(w)
}

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
// its plan scratch sized. The caller puts it back with putWS.
func staged(l *Loop, prices PriceMap) (*convexWS, error) {
	w := convexWSPool.Get().(*convexWS)
	if err := w.stage(l, prices); err != nil {
		putWS(w)
		return nil, err
	}
	return w, nil
}

// stage stages the loop's problem in w and sizes the plan scratch.
func (w *convexWS) stage(l *Loop, prices PriceMap) error {
	if err := StageProblem(&w.prob, l, prices); err != nil {
		return err
	}
	w.tok = l.tokens
	w.size()
	return nil
}

// size sizes the plan scratch for the staged loop.
func (w *convexWS) size() {
	w.plan = growFloats(w.plan, w.prob.N())
	w.amts = growFloats(w.amts, w.prob.N())
}

// HopIndex is one hop of a loop compiled to indices: the position of its
// pool in a canonical pool set, the position of its input token in a
// token index, and whether that token is the pool's Token0. A scan
// compiles each cycle once per topology, validated as NewLoop validates
// a Loop, and stages reserves and prices through it by index.
type HopIndex struct {
	Pool, Token int32
	In0         bool
}

// Reserves returns the hop's reserves in pools, oriented as
// amm.Pool.Reserves orients them for the input token.
func (h HopIndex) Reserves(pools []*amm.Pool) (rin, rout float64) {
	p := pools[h.Pool]
	if h.In0 {
		return p.Reserve0, p.Reserve1
	}
	return p.Reserve1, p.Reserve0
}

// LoopFromHops builds the Loop a hop program compiles: hop i enters
// pools[hops[i].Pool] with tokens[hops[i].Token]. The program must have
// passed NewLoop's checks when it was compiled; they are not run again.
func LoopFromHops(pools []*amm.Pool, hops []HopIndex, tokens []string) *Loop {
	l := &Loop{hops: make([]Hop, len(hops)), tokens: make([]string, len(hops))}
	for i, h := range hops {
		l.hops[i] = Hop{Pool: pools[h.Pool], TokenIn: tokens[h.Token]}
		l.tokens[i] = l.hops[i].TokenIn
	}
	return l
}

// NodePrices is a price map laid out over a token index, built once per
// scan, so staging a compiled loop reads each price by index instead of
// hashing its symbol.
type NodePrices struct {
	m      PriceMap
	tokens []string
	usd    []float64 // NaN where m holds no valid price
}

// Reset lays pm out over tokens, reusing the vector's storage. Both are
// kept until the next Reset.
func (np *NodePrices) Reset(pm PriceMap, tokens []string) {
	np.m, np.tokens = pm, tokens
	np.usd = growFloats(np.usd, len(tokens))
	for t, tok := range tokens {
		v, ok := pm[tok]
		if !ok || v < 0 || math.IsInf(v, 0) {
			v = math.NaN()
		}
		np.usd[t] = v
	}
}

// stageHops stages the problem of the loop hops compiles, exactly as
// StageProblem stages that Loop: each hop's γ and oriented reserves read
// from pools by index, each input token's price from np, and the first
// hop without a valid price failing with PriceMap.Validate's error.
//
//arblint:hotpath
func (w *convexWS) stageHops(pools []*amm.Pool, hops []HopIndex, np *NodePrices) error {
	n := len(hops)
	w.prob.Reset(n)
	w.toks = slices.Grow(w.toks[:0], n)[:n]
	for i, h := range hops {
		if p := np.usd[h.Token]; !math.IsNaN(p) {
			w.prob.PIn[i] = p
		} else {
			_, err := np.m.price(np.tokens[h.Token])
			return err
		}
		w.toks[i] = np.tokens[h.Token]
		w.prob.RIn[i], w.prob.ROut[i] = h.Reserves(pools)
		w.prob.Gamma[i] = pools[h.Pool].Gamma()
	}
	for i := range w.prob.POut {
		w.prob.POut[i] = w.prob.PIn[(i+1)%n]
	}
	w.tok = w.toks
	w.size()
	return nil
}

// Kernel is a built-in strategy in the form a scan runs it on the loops
// it holds as hop programs: a plan staged in a workspace, with no Loop
// and no Result until the loop is served (SolveHops, Materialize). Its
// method is unexported, so only this package's five strategies
// implement it; a scan adapts any other Strategy through Optimize.
type Kernel interface {
	Strategy
	kernel
}

// kernel stages in w.plan the strategy's plan for the problem staged in
// w and returns the plan's start token, or -1 when the plan may net
// several tokens (Convex, ConvexRisky).
type kernel interface {
	plan(w *convexWS) (start int, err error)
}

// solveLoop runs a kernel on a Loop: the body of every strategy's
// Optimize and of its package-level function.
func solveLoop[K kernel](k K, name string, l *Loop, prices PriceMap) (Result, error) {
	w, err := staged(l, prices)
	if err != nil {
		return Result{}, err
	}
	defer putWS(w)
	start, err := k.plan(w)
	if err != nil {
		return Result{}, err
	}
	return w.result(name, l, start)
}

// Workspace is the scratch SolveHops and Materialize compute in, owned
// by their caller: the delta engine keeps one in its scratch arena,
// which one scan holds at a time, so its per-loop path never goes
// through the shared pool Optimize uses. The zero value is ready. A Workspace serves one
// goroutine at a time.
type Workspace struct{ w convexWS }

// SolveHops runs k on the loop hops compiles, staging its problem in ws
// from pools and np, and copies the plan to plan (one input per hop,
// loop indexing). It returns the plan's start token (see Kernel) and the
// profit the Result Optimize returns for that loop would carry, bit for
// bit, or the error Optimize would return. Once ws is sized, it
// allocates only to report an error.
//
//arblint:hotpath
func SolveHops(k Kernel, ws *Workspace, pools []*amm.Pool, hops []HopIndex, np *NodePrices, plan []float64) (start int, profit float64, err error) {
	w := &ws.w
	if err := w.stageHops(pools, hops, np); err != nil {
		return 0, 0, err
	}
	if start, err = k.plan(w); err != nil {
		return 0, 0, err
	}
	if profit = w.walk(start, nil); !finite(profit) {
		return 0, 0, w.notFinite(k.Name(), profit)
	}
	copy(plan, w.plan)
	return start, profit, nil
}

// Served is a loop's served form: the Loop a scan reports it as and the
// Result Optimize returns for it.
type Served struct {
	Loop   *Loop
	Result Result
	// loops backs Loop and, for a single-start plan, Result.Loop.
	loops [2]Loop
}

// Materialize builds, in ws, the served form of a loop SolveHops solved,
// from the plan and start it returned: the Result Optimize returns for
// the loop, bit for bit, without solving it again. pools and np must
// hold the reserves and prices of the loop's tokens the solve read.
func Materialize(ws *Workspace, name string, pools []*amm.Pool, hops []HopIndex, np *NodePrices, plan []float64, start int) (*Served, error) {
	w := &ws.w
	if err := w.stageHops(pools, hops, np); err != nil {
		return nil, err
	}
	copy(w.plan, plan)
	// One backing array holds the loop twice over, so a rotation is a
	// window onto it.
	n, m := len(hops), len(hops)
	if start >= 0 {
		m = 2 * n
	}
	hs, ts := make([]Hop, m), make([]string, m)
	for i := range m {
		h := hops[i%n]
		hs[i], ts[i] = Hop{Pool: pools[h.Pool], TokenIn: np.tokens[h.Token]}, np.tokens[h.Token]
	}
	s := new(Served)
	s.loops[0] = Loop{hops: hs[:n:n], tokens: ts[:n:n]}
	s.Loop = &s.loops[0]
	rot := s.Loop
	if start >= 0 {
		s.loops[1] = Loop{hops: hs[start : start+n : start+n], tokens: ts[start : start+n : start+n]}
		rot = &s.loops[1]
	}
	res, err := w.build(name, s.Loop, rot, start)
	if err != nil {
		return nil, err
	}
	s.Result = res
	return s, nil
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

// walk returns the monetized profit of the plan staged in w.plan: each
// token's net (the output of the hop producing it minus the input of the
// hop consuming it) times its price, summed in the token order of the
// result loop, which starts at start (at hop 0 when start < 0), as
// Monetize sums. When res is non-nil it also records the plan and the
// nets in res, in that order. Outputs come from the staged curves, so
// SolveHops and a later Materialize compute the same bits.
//
//arblint:hotpath
func (w *convexWS) walk(start int, res *Result) float64 {
	n := w.prob.N()
	off := max(start, 0)
	v := 0.0
	for k := 0; k < n; k++ {
		i, prev := (off+k)%n, (off+k+n-1)%n
		out := w.prob.F(prev, w.plan[prev])
		net := out - w.plan[i]
		if res != nil {
			res.Plan.Inputs[k], res.Plan.Outputs[(k+n-1)%n] = w.plan[i], out
			res.NetTokens[w.tok[i]] = net
		}
		v += net * w.prob.PIn[i]
	}
	return v
}

// result materializes the plan staged in w.plan as the call's Result on
// l. A single-start strategy passes its start token's index, and the
// Result carries the loop rotated to that token; start < 0 keeps the
// loop's own indexing.
func (w *convexWS) result(name string, l *Loop, start int) (Result, error) {
	rot := l
	if start >= 0 {
		rot = l.Rotate(start)
	}
	return w.build(name, l, rot, start)
}

// build is the one materializer: it turns the plan staged in w.plan on l
// into a Result on rot, l rotated to start. A non-finite amount always
// leaves some net, and so the profit, non-finite (prices are finite), so
// checking the profit rejects every plan that is not finite.
func (w *convexWS) build(name string, l, rot *Loop, start int) (Result, error) {
	n := l.Len()
	amounts := make([]float64, 2*n)
	res := Result{Strategy: name, Loop: rot, NetTokens: make(map[string]float64, n)}
	res.Plan = TradePlan{Inputs: amounts[:n:n], Outputs: amounts[n:]}
	if res.Monetized = w.walk(start, &res); !finite(res.Monetized) {
		return Result{}, w.notFinite(name, res.Monetized)
	}
	if start >= 0 {
		res.StartToken, res.Input = l.tokens[start], w.plan[start]
	}
	return res, nil
}

// finite reports whether v is a finite float.
func finite(v float64) bool { return math.Abs(v) <= math.MaxFloat64 }

// notFinite is the error for a plan on the staged loop whose profit is
// not finite.
func (w *convexWS) notFinite(name string, profit float64) error {
	return fmt.Errorf("strategy: %s plan on %s is not finite (profit %g): %w", name, loopString(w.tok), profit, amm.ErrNegativeAmount)
}

// loopString renders a token cycle as "X→Y→Z→X".
func loopString(tokens []string) string {
	var b strings.Builder
	for _, t := range tokens {
		b.WriteString(t)
		b.WriteString("→")
	}
	b.WriteString(tokens[0])
	return b.String()
}
