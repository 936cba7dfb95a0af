package strategy

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"arbloop/internal/amm"
)

// The single-start and ConvexRisky walks below evaluate every hop through
// amm.Pool (Mobius, AmountOut) and monetize through the price map. They
// share no arithmetic with the staged kernel, so they are the oracle the
// kernel's single-start and per-hop math must match bit for bit.

// planFromInput walks the loop once with the given start input, threading
// each hop's output into the next hop.
func planFromInput(l *Loop, input float64) (TradePlan, error) {
	n := l.Len()
	tp := TradePlan{Inputs: make([]float64, n), Outputs: make([]float64, n)}
	amt := input
	for i := 0; i < n; i++ {
		tp.Inputs[i] = amt
		out, err := l.Hop(i).Pool.AmountOut(l.tokens[i], amt)
		if err != nil {
			return TradePlan{}, fmt.Errorf("hop %d: %w", i, err)
		}
		tp.Outputs[i] = out
		amt = out
	}
	return tp, nil
}

// traditionalReference is Traditional through the rotated loop's
// composed Möbius map and planFromInput.
func traditionalReference(l *Loop, start string, prices PriceMap) (Result, error) {
	if err := prices.Validate(l); err != nil {
		return Result{}, err
	}
	rot, err := l.RotateToStart(start)
	if err != nil {
		return Result{}, err
	}
	m, err := rot.Mobius()
	if err != nil {
		return Result{}, err
	}
	input := m.OptimalInput()
	plan, err := planFromInput(rot, input)
	if err != nil {
		return Result{}, err
	}
	net := plan.NetTokens(rot)
	mon, err := Monetize(rot, net, prices)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Strategy:   NameTraditional,
		Loop:       rot,
		StartToken: start,
		Input:      input,
		Plan:       plan,
		NetTokens:  net,
		Monetized:  mon,
	}, nil
}

// maxPriceReference is MaxPrice through traditionalReference.
func maxPriceReference(l *Loop, prices PriceMap) (Result, error) {
	if err := prices.Validate(l); err != nil {
		return Result{}, err
	}
	best := l.tokens[0]
	for _, t := range l.tokens[1:] {
		if prices[t] > prices[best] {
			best = t
		}
	}
	r, err := traditionalReference(l, best, prices)
	if err != nil {
		return Result{}, err
	}
	r.Strategy = NameMaxPrice
	return r, nil
}

// maxMaxReference is MaxMax as n traditionalReference results, the best
// kept (ties keep the earliest).
func maxMaxReference(l *Loop, prices PriceMap) (Result, error) {
	var best Result
	for i, tok := range l.tokens {
		r, err := traditionalReference(l, tok, prices)
		if err != nil {
			return Result{}, err
		}
		if i == 0 || r.Monetized > best.Monetized {
			best = r
		}
	}
	best.Strategy = NameMaxMax
	return best, nil
}

// convexRiskyReference is ConvexRisky walked hop by hop through the
// pools and the price map.
func convexRiskyReference(l *Loop, prices PriceMap) (Result, error) {
	if err := prices.Validate(l); err != nil {
		return Result{}, err
	}
	n := l.Len()
	plan := TradePlan{Inputs: make([]float64, n), Outputs: make([]float64, n)}
	for i := 0; i < n; i++ {
		hop := l.Hop(i)
		outTok, err := hop.TokenOut()
		if err != nil {
			return Result{}, err
		}
		pIn, pOut := prices[l.tokens[i]], prices[outTok]
		rin, rout, err := hop.Pool.Reserves(l.tokens[i])
		if err != nil {
			return Result{}, err
		}
		gamma := hop.Pool.Gamma()

		var a float64
		switch {
		case pOut <= 0:
			a = 0
		case pIn <= 0:
			a = 0
		default:
			root := math.Sqrt(gamma * rin * rout * pOut / pIn)
			a = (root - rin) / gamma
			if a < 0 {
				a = 0
			}
		}
		out := 0.0
		if a > 0 {
			out, err = hop.Pool.AmountOut(l.tokens[i], a)
			if err != nil {
				return Result{}, fmt.Errorf("hop %d: %w", i, err)
			}
		}
		plan.Inputs[i] = a
		plan.Outputs[i] = out
	}
	net := plan.NetTokens(l)
	mon, err := Monetize(l, net, prices)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Strategy:  NameConvexRisky,
		Loop:      l,
		Plan:      plan,
		NetTokens: net,
		Monetized: mon,
	}, nil
}

// randomLoopLen builds a loop of length n with random reserves and fees,
// its price product drawn from [0.8, 1.5] (about a quarter of the loops
// are not arbitrage loops), plus random CEX prices.
func randomLoopLen(tb testing.TB, rng *rand.Rand, n int) (*Loop, PriceMap) {
	tb.Helper()
	return randomLoopWithProduct(tb, rng, n, 0.8, 0.7)
}

// sameBits reports whether two floats have the same bits (so -0 ≠ +0 and
// NaN = NaN).
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// requireBitIdentical asserts that got and want agree on whether an error
// came back and, when none did, on every field, floats bit for bit.
func requireBitIdentical(t testing.TB, name string, got Result, gotErr error, want Result, wantErr error) {
	t.Helper()
	if (gotErr != nil) != (wantErr != nil) {
		t.Errorf("%s: error %v, want %v", name, gotErr, wantErr)
		return
	}
	if gotErr != nil {
		return
	}
	if got.Strategy != want.Strategy || got.StartToken != want.StartToken || got.Loop.String() != want.Loop.String() ||
		!sameBits(got.Input, want.Input) || !sameBits(got.Monetized, want.Monetized) ||
		!slices.EqualFunc(got.Plan.Inputs, want.Plan.Inputs, sameBits) ||
		!slices.EqualFunc(got.Plan.Outputs, want.Plan.Outputs, sameBits) ||
		!maps.EqualFunc(got.NetTokens, want.NetTokens, sameBits) {
		t.Errorf("%s: results differ:\ngot  %+v\nwant %+v", name, got, want)
	}
}

// TestKernelMatchesWalkReference is the oracle for the single-start math:
// Traditional from every start, MaxPrice, MaxMax and ConvexRisky return
// the walk references' results bit for bit, errors included, on random
// loops of lengths 2–6, arbitrage and not, each also run with one token
// priced 0.
func TestKernelMatchesWalkReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	noArb := 0
	for n := 2; n <= 6; n++ {
		for trial := 0; trial < 60; trial++ {
			l, prices := randomLoopLen(t, rng, n)
			if ok, _ := l.Profitable(); !ok {
				noArb++
			}
			zeroed := maps.Clone(prices)
			zeroed[l.Token(trial%n)] = 0
			for _, pm := range []PriceMap{prices, zeroed} {
				name := fmt.Sprintf("n=%d trial %d %v", n, trial, pm)
				for _, tok := range l.tokens {
					got, err := Traditional(l, tok, pm)
					want, wantErr := traditionalReference(l, tok, pm)
					requireBitIdentical(t, name+" Traditional "+tok, got, err, want, wantErr)
				}
				got, err := MaxPrice(l, pm)
				want, wantErr := maxPriceReference(l, pm)
				requireBitIdentical(t, name+" MaxPrice", got, err, want, wantErr)
				got, err = MaxMax(l, pm)
				want, wantErr = maxMaxReference(l, pm)
				requireBitIdentical(t, name+" MaxMax", got, err, want, wantErr)
				got, err = ConvexRisky(l, pm)
				want, wantErr = convexRiskyReference(l, pm)
				requireBitIdentical(t, name+" ConvexRisky", got, err, want, wantErr)
			}
		}
	}
	if noArb < 30 {
		t.Errorf("only %d of 300 loops are not arbitrage loops; the generator lost its no-arbitrage share", noArb)
	}
}

// overflowLoop is a length-n loop of pools holding 1e24 of each token,
// fee 0.3%, except that hop 0 pays out of 1.1e24; every token is priced
// 1. From length 7 the composed map's A·B overflows float64.
func overflowLoop(t testing.TB, n int) (*Loop, PriceMap) {
	t.Helper()
	hops := make([]Hop, n)
	prices := PriceMap{}
	for i := 0; i < n; i++ {
		t0, t1 := fmt.Sprintf("T%d", i), fmt.Sprintf("T%d", (i+1)%n)
		rout := 1e24
		if i == 0 {
			rout = 1.1e24
		}
		hops[i] = Hop{Pool: amm.MustNewPool(fmt.Sprintf("p%d", i), t0, t1, 1e24, rout, 0.003), TokenIn: t0}
		prices[t0] = 1
	}
	l, err := NewLoop(hops)
	if err != nil {
		t.Fatal(err)
	}
	return l, prices
}

// TestNonFinitePlansAreErrors: where a strategy's plan overflows float64,
// it returns an error wrapping amm.ErrNegativeAmount, never a NaN result.
// ConvexRisky solves each hop alone, never composes the loop, and stays
// finite. One hop shorter, every strategy returns its finite result.
func TestNonFinitePlansAreErrors(t *testing.T) {
	l, prices := overflowLoop(t, 7)
	for _, s := range []Strategy{TraditionalStrategy{}, MaxPriceStrategy{}, MaxMaxStrategy{}, ConvexStrategy{}} {
		r, err := s.Optimize(context.Background(), l, prices)
		if !errors.Is(err, amm.ErrNegativeAmount) {
			t.Errorf("n=7 %s: err = %v (Monetized %g), want amm.ErrNegativeAmount", s.Name(), err, r.Monetized)
		}
	}
	got, err := ConvexRisky(l, prices)
	want, wantErr := convexRiskyReference(l, prices)
	requireBitIdentical(t, "n=7 ConvexRisky", got, err, want, wantErr)
	if !(math.Abs(got.Monetized) <= math.MaxFloat64) {
		t.Errorf("n=7 ConvexRisky: Monetized %g, want finite", got.Monetized)
	}

	l, prices = overflowLoop(t, 6)
	got, err = Traditional(l, "T0", prices)
	want, wantErr = traditionalReference(l, "T0", prices)
	requireBitIdentical(t, "n=6 Traditional", got, err, want, wantErr)
	got, err = MaxPrice(l, prices)
	want, wantErr = maxPriceReference(l, prices)
	requireBitIdentical(t, "n=6 MaxPrice", got, err, want, wantErr)
	mm, err := MaxMax(l, prices)
	want, wantErr = maxMaxReference(l, prices)
	requireBitIdentical(t, "n=6 MaxMax", mm, err, want, wantErr)
	got, err = ConvexRisky(l, prices)
	want, wantErr = convexRiskyReference(l, prices)
	requireBitIdentical(t, "n=6 ConvexRisky", got, err, want, wantErr)
	cv, err := Convex(l, prices)
	if err != nil || cv.Monetized != mm.Monetized {
		t.Errorf("n=6 Convex: %g, %v; want MaxMax's %g", cv.Monetized, err, mm.Monetized)
	}
}

// TestStrategiesShareWorkspace: eight goroutines mix all five strategies
// over loops of lengths 3–6, certified and enumerating, so the pooled
// workspace is resized between calls. Every result must equal the serial
// one, both when it returns and after every goroutine has stopped, which
// catches a Result aliasing pooled scratch.
func TestStrategiesShareWorkspace(t *testing.T) {
	type call struct {
		s      Strategy
		l      *Loop
		prices PriceMap
	}
	strategies := []Strategy{TraditionalStrategy{}, MaxPriceStrategy{}, MaxMaxStrategy{}, ConvexStrategy{}, ConvexRiskyStrategy{}}
	var calls []call
	add := func(l *Loop, prices PriceMap) {
		for _, s := range strategies {
			calls = append(calls, call{s, l, prices})
		}
	}
	rng := rand.New(rand.NewSource(8))
	for n := 3; n <= 6; n++ {
		add(randomLoopLen(t, rng, n))
		add(randomLoopLen(t, rng, n))
		add(paperLoopExtended(t, n)) // its certificate fails: Convex enumerates
	}
	ctx := context.Background()
	serial := make([]Result, len(calls))
	for i, c := range calls {
		r, err := c.s.Optimize(ctx, c.l, c.prices)
		if err != nil {
			t.Fatalf("%s on %s: %v", c.s.Name(), c.l, err)
		}
		serial[i] = r
	}

	const goroutines, perGoroutine = 8, 200
	got := make([][]Result, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		got[g] = make([]Result, perGoroutine)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range got[g] {
				i := (g*perGoroutine + 7*k) % len(calls)
				r, err := calls[i].s.Optimize(ctx, calls[i].l, calls[i].prices)
				requireBitIdentical(t, fmt.Sprintf("goroutine %d call %d", g, k), r, err, serial[i], nil)
				got[g][k] = r
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for k, r := range got[g] {
			i := (g*perGoroutine + 7*k) % len(calls)
			requireBitIdentical(t, fmt.Sprintf("goroutine %d call %d after the run", g, k), r, nil, serial[i], nil)
		}
	}
}
