// Package amm implements Uniswap V2 constant-product market maker (CPMM)
// mathematics in two complementary forms:
//
//   - Pool: a float64 "analytic" pool exposing the swap function
//     F(Δx|θ) = γ·y·Δx / (x + γ·Δx) with derivatives and Möbius-map
//     coefficients. The optimization strategies (package strategy) work on
//     this representation.
//   - Pair: an exact big.Int reproduction of the UniswapV2Pair contract
//     semantics (getAmountOut, swap, mint, burn, sync, skim, K invariant).
//     The chain simulator (package chain) executes against Pairs; tests
//     cross-validate Pool against Pair.
//
// Throughout the package λ is the pool fee (0.003 on Uniswap V2) and
// γ = 1 − λ.
package amm

import (
	"errors"
	"fmt"
	"math"
)

// DefaultFee is the Uniswap V2 fee (0.3%), charged on input amounts.
const DefaultFee = 0.003

// Errors shared by the analytic pool operations.
var (
	ErrNonPositiveReserve = errors.New("amm: reserves must be positive")
	ErrNotFinite          = errors.New("amm: reserve must be finite")
	ErrInvalidFee         = errors.New("amm: fee must be in [0, 1)")
	ErrNegativeAmount     = errors.New("amm: amount must be non-negative")
	ErrInsufficientOutput = errors.New("amm: requested output exceeds reserve")
	ErrUnknownToken       = errors.New("amm: token not in pool")
)

// Pool is an analytic constant-product pool between two tokens identified by
// opaque string keys (typically a token address hex or a symbol). ReserveIn /
// ReserveOut naming is avoided: a Pool is undirected and either token may be
// the input of a swap.
type Pool struct {
	// ID identifies the pool (e.g. the pair contract address); informational.
	ID string
	// Token0, Token1 are the two token keys. Order is fixed at construction
	// and mirrors the Uniswap convention of sorting by address.
	Token0, Token1 string
	// Reserve0, Reserve1 are the current reserves of Token0 and Token1.
	Reserve0, Reserve1 float64
	// Fee is λ, the fraction of every input amount taken as a fee.
	Fee float64
}

// NewPool validates and builds an analytic pool.
func NewPool(id, token0, token1 string, reserve0, reserve1, fee float64) (*Pool, error) {
	p := &Pool{
		ID:       id,
		Token0:   token0,
		Token1:   token1,
		Reserve0: reserve0,
		Reserve1: reserve1,
		Fee:      fee,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Validate checks the pool's fields against the CPMM domain: finite
// strictly-positive reserves, a fee in [0, 1), and distinct tokens. It is
// the single choke point for pool-shaped data entering the pipeline —
// NewPool routes through it at construction, and the feed boundary
// (feed.Watcher) re-applies it on ingest so a source handing back
// directly-built (or corrupted) Pool structs cannot smuggle NaN into the
// convex solve. Errors unwrap to the typed amm errors
// (ErrNotFinite, ErrNonPositiveReserve, ErrInvalidFee).
func (p *Pool) Validate() error {
	if math.IsNaN(p.Reserve0) || math.IsNaN(p.Reserve1) || math.IsInf(p.Reserve0, 0) || math.IsInf(p.Reserve1, 0) {
		return fmt.Errorf("%w: got (%g, %g)", ErrNotFinite, p.Reserve0, p.Reserve1)
	}
	if !(p.Reserve0 > 0) || !(p.Reserve1 > 0) {
		return fmt.Errorf("%w: got (%g, %g)", ErrNonPositiveReserve, p.Reserve0, p.Reserve1)
	}
	if p.Fee < 0 || p.Fee >= 1 || math.IsNaN(p.Fee) {
		return fmt.Errorf("%w: got %g", ErrInvalidFee, p.Fee)
	}
	if p.Token0 == p.Token1 {
		return fmt.Errorf("amm: pool tokens must differ, both %q", p.Token0)
	}
	return nil
}

// MustNewPool is NewPool that panics on error; for tests and literal tables.
func MustNewPool(id, token0, token1 string, reserve0, reserve1, fee float64) *Pool {
	p, err := NewPool(id, token0, token1, reserve0, reserve1, fee)
	if err != nil {
		panic(err)
	}
	return p
}

// Gamma returns γ = 1 − Fee.
func (p *Pool) Gamma() float64 { return 1 - p.Fee }

// K returns the constant-product invariant k = Reserve0 · Reserve1.
func (p *Pool) K() float64 { return p.Reserve0 * p.Reserve1 }

// Has reports whether the pool contains the given token key.
func (p *Pool) Has(tok string) bool { return tok == p.Token0 || tok == p.Token1 }

// Other returns the counterparty token of tok.
func (p *Pool) Other(tok string) (string, error) {
	switch tok {
	case p.Token0:
		return p.Token1, nil
	case p.Token1:
		return p.Token0, nil
	default:
		return "", fmt.Errorf("%w: %q not in pool %s/%s", ErrUnknownToken, tok, p.Token0, p.Token1)
	}
}

// Reserves returns (reserveIn, reserveOut) oriented so that tokenIn is the
// input side.
func (p *Pool) Reserves(tokenIn string) (rin, rout float64, err error) {
	switch tokenIn {
	case p.Token0:
		return p.Reserve0, p.Reserve1, nil
	case p.Token1:
		return p.Reserve1, p.Reserve0, nil
	default:
		return 0, 0, fmt.Errorf("%w: %q not in pool %s/%s", ErrUnknownToken, tokenIn, p.Token0, p.Token1)
	}
}

// SpotPrice returns the marginal price of tokenIn denominated in the other
// token, fee included: p = γ · r_out / r_in. A loop is an arbitrage loop
// exactly when the product of spot prices along it exceeds 1 (paper §III).
func (p *Pool) SpotPrice(tokenIn string) (float64, error) {
	rin, rout, err := p.Reserves(tokenIn)
	if err != nil {
		return 0, err
	}
	return p.Gamma() * rout / rin, nil
}

// AmountOut evaluates the swap function Δy = F(Δx|θ) = γ·y·Δx / (x + γ·Δx)
// for input amount dx of tokenIn. It is strictly concave and increasing in
// dx with F(0) = 0 and sup F = y.
func (p *Pool) AmountOut(tokenIn string, dx float64) (float64, error) {
	if dx < 0 || math.IsNaN(dx) {
		return 0, fmt.Errorf("%w: got %g", ErrNegativeAmount, dx)
	}
	rin, rout, err := p.Reserves(tokenIn)
	if err != nil {
		return 0, err
	}
	g := p.Gamma()
	return g * rout * dx / (rin + g*dx), nil
}

// AmountIn inverts the swap function: the minimal input of tokenIn needed to
// withdraw dy of the counterparty token. dy must be strictly below the
// output reserve.
func (p *Pool) AmountIn(tokenIn string, dy float64) (float64, error) {
	if dy < 0 || math.IsNaN(dy) {
		return 0, fmt.Errorf("%w: got %g", ErrNegativeAmount, dy)
	}
	rin, rout, err := p.Reserves(tokenIn)
	if err != nil {
		return 0, err
	}
	if dy >= rout {
		return 0, fmt.Errorf("%w: want %g of reserve %g", ErrInsufficientOutput, dy, rout)
	}
	g := p.Gamma()
	return rin * dy / (g * (rout - dy)), nil
}

// DOutDIn is the first derivative F'(Δx) = γ·x·y / (x + γΔx)². At Δx = 0 it
// equals the spot price; the paper's optimality condition for a composed
// loop is dΔout/dΔin = 1.
func (p *Pool) DOutDIn(tokenIn string, dx float64) (float64, error) {
	if dx < 0 || math.IsNaN(dx) {
		return 0, fmt.Errorf("%w: got %g", ErrNegativeAmount, dx)
	}
	rin, rout, err := p.Reserves(tokenIn)
	if err != nil {
		return 0, err
	}
	g := p.Gamma()
	d := rin + g*dx
	return g * rin * rout / (d * d), nil
}

// D2OutDIn2 is the second derivative F”(Δx) = −2γ²·x·y / (x + γΔx)³ (< 0:
// the swap function is strictly concave).
func (p *Pool) D2OutDIn2(tokenIn string, dx float64) (float64, error) {
	if dx < 0 || math.IsNaN(dx) {
		return 0, fmt.Errorf("%w: got %g", ErrNegativeAmount, dx)
	}
	rin, rout, err := p.Reserves(tokenIn)
	if err != nil {
		return 0, err
	}
	g := p.Gamma()
	d := rin + g*dx
	return -2 * g * g * rin * rout / (d * d * d), nil
}

// ApplySwap returns a copy of the pool with reserves updated as if dx of
// tokenIn had been swapped: input side gains the full dx (fees accrue to
// the pool), output side loses F(dx).
func (p *Pool) ApplySwap(tokenIn string, dx float64) (*Pool, float64, error) {
	dy, err := p.AmountOut(tokenIn, dx)
	if err != nil {
		return nil, 0, err
	}
	next := *p
	switch tokenIn {
	case p.Token0:
		next.Reserve0 += dx
		next.Reserve1 -= dy
	case p.Token1:
		next.Reserve1 += dx
		next.Reserve0 -= dy
	}
	return &next, dy, nil
}

// Mobius returns the coefficients (a, b, c) of the swap function written as
// the Möbius map F(Δ) = a·Δ / (b + c·Δ): a = γ·r_out, b = r_in, c = γ.
// Compositions of such maps along a loop stay in the family (see Compose),
// which gives the closed-form optimal input used by package strategy.
func (p *Pool) Mobius(tokenIn string) (Mobius, error) {
	rin, rout, err := p.Reserves(tokenIn)
	if err != nil {
		return Mobius{}, err
	}
	g := p.Gamma()
	return Mobius{A: g * rout, B: rin, C: g}, nil
}

// TVL computes the pool's total value locked given USD prices for both
// tokens. Pools with unknown prices value the unknown side at zero.
func (p *Pool) TVL(price0, price1 float64) float64 {
	return p.Reserve0*price0 + p.Reserve1*price1
}

// String implements fmt.Stringer.
func (p *Pool) String() string {
	return fmt.Sprintf("Pool(%s/%s r0=%.6g r1=%.6g λ=%.4g)", p.Token0, p.Token1, p.Reserve0, p.Reserve1, p.Fee)
}

// Mobius represents the map F(Δ) = A·Δ / (B + C·Δ) with A, B, C > 0. Every
// CPMM swap is such a map, and the family is closed under composition, so an
// entire arbitrage path collapses to a single Mobius.
type Mobius struct {
	A, B, C float64
}

// Identity returns the identity map (F(Δ) = Δ).
func Identity() Mobius { return Mobius{A: 1, B: 1, C: 0} }

// Eval evaluates F(d) = A·d / (B + C·d).
func (m Mobius) Eval(d float64) float64 {
	if d <= 0 {
		return 0
	}
	return m.A * d / (m.B + m.C*d)
}

// Deriv evaluates F'(d) = A·B / (B + C·d)².
func (m Mobius) Deriv(d float64) float64 {
	den := m.B + m.C*d
	return m.A * m.B / (den * den)
}

// Compose returns next ∘ m, the map that first applies m and then next:
// (next∘m)(Δ) = A₂A₁Δ / (B₁B₂ + (B₂C₁ + C₂A₁)Δ).
func (m Mobius) Compose(next Mobius) Mobius {
	return Mobius{
		A: next.A * m.A,
		B: m.B * next.B,
		C: next.B*m.C + next.C*m.A,
	}
}

// Profitable reports whether the composed loop admits positive profit,
// i.e. F'(0) = A/B > 1 ⇔ the product of spot prices along the loop is > 1.
func (m Mobius) Profitable() bool { return m.A > m.B }

// OptimalInput returns the profit-maximizing input Δ* of the map's start
// token: argmax (F(Δ) − Δ) = (√(A·B) − B) / C, or 0 when the loop is not
// profitable. C = 0 never occurs for a real loop (γ > 0).
func (m Mobius) OptimalInput() float64 {
	if !m.Profitable() || m.C <= 0 {
		return 0
	}
	return (math.Sqrt(m.A*m.B) - m.B) / m.C
}

// MaxProfit returns max_Δ (F(Δ) − Δ) = (√A − √B)² / C, or 0 when the loop
// is not profitable.
func (m Mobius) MaxProfit() float64 {
	if !m.Profitable() || m.C <= 0 {
		return 0
	}
	d := math.Sqrt(m.A) - math.Sqrt(m.B)
	return d * d / m.C
}

// ProfitAt returns F(d) − d.
func (m Mobius) ProfitAt(d float64) float64 { return m.Eval(d) - d }

// EffectivePrice returns the average price paid over a swap of dx:
// F(dx)/dx in output tokens per input token. As dx → 0 it approaches the
// spot price; it decreases monotonically with size (slippage).
func (p *Pool) EffectivePrice(tokenIn string, dx float64) (float64, error) {
	if dx <= 0 || math.IsNaN(dx) {
		return 0, fmt.Errorf("%w: got %g", ErrNegativeAmount, dx)
	}
	out, err := p.AmountOut(tokenIn, dx)
	if err != nil {
		return 0, err
	}
	return out / dx, nil
}

// PriceImpact returns the relative shortfall of a swap's effective price
// against the spot price: 1 − (F(dx)/dx)/p_spot ∈ [0, 1). The paper's
// slippage discussion (§I) is exactly this quantity limiting arbitrage
// profit.
func (p *Pool) PriceImpact(tokenIn string, dx float64) (float64, error) {
	spot, err := p.SpotPrice(tokenIn)
	if err != nil {
		return 0, err
	}
	eff, err := p.EffectivePrice(tokenIn, dx)
	if err != nil {
		return 0, err
	}
	return 1 - eff/spot, nil
}
