// Package strategy implements the paper's contribution: the four arbitrage
// profit-maximization strategies over a fixed arbitrage loop of CPMM pools,
// with profits monetized by CEX prices.
//
//   - Traditional(t): fix a start token t, maximize P_t·(Δt_out − Δt_in).
//     The composed loop is a single Möbius map (package amm), so the
//     optimum Δ* = (√(AB) − B)/C is closed-form; bisection and
//     golden-section variants exist as ablation baselines.
//   - MaxPrice: Traditional from the loop token with the highest CEX price.
//   - MaxMax: Traditional from every token in turn; take the maximum
//     monetized profit (paper eq. (6)).
//   - ConvexOptimization: paper problem (8) — relax flow conservation to
//     inequalities and maximize Σ_t P_t·(net t) over all per-hop inputs at
//     once, solved exactly: the best rotation when a KKT certificate
//     accepts it, the best closed-form face otherwise (see Convex).
//
// All of them, and ConvexRisky (problem (8) without no-shorting), run on
// one kernel: a pooled workspace holding the loop's problem as
// StageProblem stages it, each hop's fee and reserves and each token's
// price read once, the prices checked as PriceMap.Validate checks them.
// Traditional and MaxPrice stage one rotation's closed-form plan, MaxMax
// the best rotation, Convex the certified rotation or the best face, and
// ConvexRisky each hop's own optimum. One materializer turns the plan into
// a Result; a plan whose amounts or profit are not finite is an error,
// never a NaN result. Optimize stages a Loop and returns the Result, its
// only allocation. A scan's delta path reaches the same kernel through
// the Kernel interface on a loop compiled to indices: SolveHops stages
// the problem by index and returns the plan and its profit with no
// allocation, and Materialize later builds the Loop and the Result
// Optimize would have returned, only for a loop the scan serves.
package strategy

import (
	"errors"
	"fmt"
	"math"

	"arbloop/internal/amm"
)

// Errors returned by loop construction and strategies.
var (
	ErrEmptyLoop     = errors.New("strategy: loop needs at least 2 hops")
	ErrNotClosed     = errors.New("strategy: hops do not close into a loop")
	ErrRepeatedToken = errors.New("strategy: token repeated in loop")
	ErrRepeatedPool  = errors.New("strategy: pool repeated in loop")
	ErrUnknownStart  = errors.New("strategy: start token not in loop")
	ErrMissingPrice  = errors.New("strategy: missing CEX price")
	ErrNegativePrice = errors.New("strategy: CEX price must be non-negative")
	ErrLoopTooLong   = errors.New("strategy: loop too long")
)

// Hop is one swap: the input token enters Pool and the pool's other token
// comes out.
type Hop struct {
	Pool    *amm.Pool
	TokenIn string
}

// TokenOut returns the hop's output token.
func (h Hop) TokenOut() (string, error) { return h.Pool.Other(h.TokenIn) }

// Loop is an immutable arbitrage loop: hop i's output token is hop i+1's
// input token and the last hop returns to the first token. Tokens and
// pools are distinct along the loop.
type Loop struct {
	hops   []Hop
	tokens []string // tokens[i] = input token of hop i
}

// NewLoop validates the hop sequence and builds a loop.
func NewLoop(hops []Hop) (*Loop, error) {
	n := len(hops)
	if n < 2 {
		return nil, fmt.Errorf("%w: got %d", ErrEmptyLoop, n)
	}
	tokens := make([]string, n)
	seenTok := make(map[string]bool, n)
	seenPool := make(map[*amm.Pool]bool, n)
	for i, h := range hops {
		if h.Pool == nil {
			return nil, fmt.Errorf("strategy: hop %d has nil pool", i)
		}
		if !h.Pool.Has(h.TokenIn) {
			return nil, fmt.Errorf("strategy: hop %d: %w", i, amm.ErrUnknownToken)
		}
		if seenTok[h.TokenIn] {
			return nil, fmt.Errorf("%w: %q", ErrRepeatedToken, h.TokenIn)
		}
		seenTok[h.TokenIn] = true
		if seenPool[h.Pool] {
			return nil, fmt.Errorf("%w: %s", ErrRepeatedPool, h.Pool.ID)
		}
		seenPool[h.Pool] = true
		tokens[i] = h.TokenIn
	}
	for i, h := range hops {
		out, err := h.TokenOut()
		if err != nil {
			return nil, err
		}
		next := tokens[(i+1)%n]
		if out != next {
			return nil, fmt.Errorf("%w: hop %d outputs %q but hop %d expects %q",
				ErrNotClosed, i, out, (i+1)%n, next)
		}
	}
	cp := make([]Hop, n)
	copy(cp, hops)
	return &Loop{hops: cp, tokens: tokens}, nil
}

// Len returns the number of hops (= tokens = pools).
func (l *Loop) Len() int { return len(l.hops) }

// Tokens returns a copy of the loop's token sequence (input token per hop).
func (l *Loop) Tokens() []string {
	out := make([]string, len(l.tokens))
	copy(out, l.tokens)
	return out
}

// Hops returns a copy of the hop sequence.
func (l *Loop) Hops() []Hop {
	out := make([]Hop, len(l.hops))
	copy(out, l.hops)
	return out
}

// Hop returns hop i.
func (l *Loop) Hop(i int) Hop { return l.hops[i] }

// Token returns the input token of hop i without copying the token
// slice — the allocation-free counterpart of Tokens() for hot paths.
func (l *Loop) Token(i int) string { return l.tokens[i] }

// HasToken reports whether the token is one of the loop's input tokens.
func (l *Loop) HasToken(tok string) bool {
	for _, t := range l.tokens {
		if t == tok {
			return true
		}
	}
	return false
}

// Rotate returns the loop re-anchored so that hop offset becomes hop 0
// (the MaxMax strategy evaluates every rotation).
func (l *Loop) Rotate(offset int) *Loop {
	n := len(l.hops)
	offset = ((offset % n) + n) % n
	hops := make([]Hop, n)
	tokens := make([]string, n)
	for i := 0; i < n; i++ {
		hops[i] = l.hops[(i+offset)%n]
		tokens[i] = l.tokens[(i+offset)%n]
	}
	return &Loop{hops: hops, tokens: tokens}
}

// RotateToStart returns the rotation of the loop starting at the given
// token.
func (l *Loop) RotateToStart(tok string) (*Loop, error) {
	for i, t := range l.tokens {
		if t == tok {
			return l.Rotate(i), nil
		}
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownStart, tok)
}

// Mobius composes the loop's swap functions into a single Möbius map for
// the current anchor token.
func (l *Loop) Mobius() (amm.Mobius, error) {
	m := amm.Identity()
	for i, h := range l.hops {
		hm, err := h.Pool.Mobius(h.TokenIn)
		if err != nil {
			return amm.Mobius{}, fmt.Errorf("hop %d: %w", i, err)
		}
		m = m.Compose(hm)
	}
	return m, nil
}

// PriceProduct returns Π γ·r_out/r_in along the loop; > 1 iff the loop is
// an arbitrage loop.
func (l *Loop) PriceProduct() (float64, error) {
	prod := 1.0
	for i, h := range l.hops {
		p, err := h.Pool.SpotPrice(h.TokenIn)
		if err != nil {
			return 0, fmt.Errorf("hop %d: %w", i, err)
		}
		prod *= p
	}
	return prod, nil
}

// Profitable reports whether the loop admits positive profit for a start
// at the anchor token (equivalently, any token — profitability is a
// property of the cycle, not the anchor).
func (l *Loop) Profitable() (bool, error) {
	p, err := l.PriceProduct()
	if err != nil {
		return false, err
	}
	return p > 1, nil
}

// String renders the loop as "X→Y→Z→X".
func (l *Loop) String() string { return loopString(l.tokens) }

// PriceMap maps token keys to CEX USD prices.
type PriceMap map[string]float64

// Validate checks that the price map covers the loop's tokens with
// non-negative finite prices.
func (p PriceMap) Validate(l *Loop) error {
	for _, t := range l.tokens {
		if _, err := p.price(t); err != nil {
			return err
		}
	}
	return nil
}

// price returns tok's price, or the error Validate reports for it.
func (p PriceMap) price(tok string) (float64, error) {
	v, ok := p[tok]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrMissingPrice, tok)
	}
	if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("%w: %q has %g", ErrNegativePrice, tok, v)
	}
	return v, nil
}

// TradePlan records the amounts flowing through each hop of a loop.
type TradePlan struct {
	// Inputs[i] is the amount of Loop.Hop(i).TokenIn put into hop i.
	Inputs []float64
	// Outputs[i] is the amount received from hop i.
	Outputs []float64
}

// NetTokens computes, for every loop token, the net amount acquired:
// output of the hop producing it minus input of the hop consuming it.
func (tp TradePlan) NetTokens(l *Loop) map[string]float64 {
	n := l.Len()
	net := make(map[string]float64, n)
	for i := 0; i < n; i++ {
		tok := l.tokens[i]
		// Hop i consumes tok; hop (i−1+n)%n produces it.
		net[tok] = tp.Outputs[(i-1+n)%n] - tp.Inputs[i]
	}
	return net
}

// Monetize values a net-token map in USD, accumulating in the loop's
// token order — deterministic by construction and allocation-free (the
// map is keyed by exactly the loop's tokens, so no key sort is needed).
// Tokens in net that are not loop tokens would be silently skipped; the
// strategies never produce such maps (NetTokens keys are l's tokens).
func Monetize(l *Loop, net map[string]float64, prices PriceMap) (float64, error) {
	total := 0.0
	for _, t := range l.tokens {
		p, ok := prices[t]
		if !ok {
			return 0, fmt.Errorf("%w: %q", ErrMissingPrice, t)
		}
		total += net[t] * p
	}
	return total, nil
}
