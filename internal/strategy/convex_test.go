package strategy

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"arbloop/internal/amm"
)

// randomProfitableLoop builds a profitable loop of length n with random
// reserves and fees, its price product nudged into [1.02, 1.5], plus
// random CEX prices.
func randomProfitableLoop(t testing.TB, rng *rand.Rand, n int) (*Loop, PriceMap) {
	t.Helper()
	return randomLoopWithProduct(t, rng, n, 1.02, 0.48)
}

// randomLoopWithProduct builds a loop of length n with random reserves
// and fees, its price product nudged into [base, base+spread], plus
// random CEX prices.
func randomLoopWithProduct(t testing.TB, rng *rand.Rand, n int, base, spread float64) (*Loop, PriceMap) {
	t.Helper()
	fees := []float64{0, 0.001, 0.003, 0.01, 0.03}
	hops := make([]Hop, n)
	prices := PriceMap{}
	prod := 1.0
	reserves := make([][2]float64, n)
	gammas := make([]float64, n)
	for i := 0; i < n; i++ {
		gammas[i] = 1 - fees[rng.Intn(len(fees))]
		reserves[i] = [2]float64{
			math.Pow(10, 3+3*rng.Float64()),
			math.Pow(10, 3+3*rng.Float64()),
		}
		prod *= gammas[i] * reserves[i][1] / reserves[i][0]
	}
	target := base + spread*rng.Float64()
	reserves[0][1] *= target / prod
	for i := 0; i < n; i++ {
		t0, t1 := fmt.Sprintf("T%d", i), fmt.Sprintf("T%d", (i+1)%n)
		hops[i] = Hop{
			Pool: amm.MustNewPool(fmt.Sprintf("p%d", i), t0, t1,
				reserves[i][0], reserves[i][1], 1-gammas[i]),
			TokenIn: t0,
		}
		prices[t0] = math.Pow(10, -1+3*rng.Float64())
	}
	l, err := NewLoop(hops)
	if err != nil {
		t.Fatal(err)
	}
	return l, prices
}

// TestConvexStructuredMatchesGeneric is the strategy-level oracle
// property: the exact solve (Convex) and the dense barrier reference
// (convexReference) agree on plan vectors and monetized profit within
// 1e-6 (relative), and Convex is never below the reference by more than
// 1e-9 of the scale, over random profitable loops of length 2–6 ×
// random fees/reserves/prices. Every loop also runs with one token
// priced 0, since the segment formula divides by a start token's price.
func TestConvexStructuredMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for n := 2; n <= 6; n++ {
		for trial := 0; trial < 10; trial++ {
			l, prices := randomProfitableLoop(t, rng, n)
			requireMatchesReference(t, fmt.Sprintf("n=%d trial %d", n, trial), l, prices)
			zeroed := maps.Clone(prices)
			zeroed[l.Token(trial%n)] = 0
			requireMatchesReference(t, fmt.Sprintf("n=%d trial %d, %s priced 0", n, trial, l.Token(trial%n)), l, zeroed)
		}
	}
}

// requireMatchesReference checks Convex against convexReference on one
// loop: monetized profit and plan within 1e-6 (relative), never below
// the reference by more than 1e-9 of the scale, finite non-negative
// inputs, and never below MaxMax.
func requireMatchesReference(t *testing.T, name string, l *Loop, prices PriceMap) Result {
	t.Helper()
	fast, err := Convex(l, prices)
	if err != nil {
		t.Fatalf("%s: Convex: %v", name, err)
	}
	ref, err := convexReference(l, prices)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	scale := 1 + math.Abs(ref.Monetized)
	if d := math.Abs(fast.Monetized - ref.Monetized); d > 1e-6*scale {
		t.Errorf("%s: monetized exact %.12g vs reference %.12g", name, fast.Monetized, ref.Monetized)
	}
	if fast.Monetized < ref.Monetized-1e-9*scale {
		t.Errorf("%s: exact %.12g below reference %.12g", name, fast.Monetized, ref.Monetized)
	}
	// Plan comparison needs rotation-aware alignment: the reference may
	// have fallen back to the MaxMax plan, whose result loop is a
	// rotation of l.
	for i := 0; i < l.Len(); i++ {
		fa := planInputFor(fast, l.Token(i))
		ra := planInputFor(ref, l.Token(i))
		if !(fa >= 0) || math.IsInf(fa, 1) {
			t.Errorf("%s: input[%s] = %g, want finite and >= 0", name, l.Token(i), fa)
		}
		if d := math.Abs(fa - ra); d > 1e-6*(1+math.Abs(ra)) {
			t.Errorf("%s: input[%s] exact %.12g vs reference %.12g", name, l.Token(i), fa, ra)
		}
	}
	// Dominance (§IV): the convex result never loses to MaxMax.
	mm, err := MaxMax(l, prices)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Monetized < mm.Monetized {
		t.Errorf("%s: exact %.12g below MaxMax %.12g", name, fast.Monetized, mm.Monetized)
	}
	return fast
}

// planInputFor returns the result's input amount for the hop consuming
// tok, regardless of the result loop's rotation.
func planInputFor(r Result, tok string) float64 {
	for i := 0; i < r.Loop.Len(); i++ {
		if r.Loop.Token(i) == tok {
			return r.Plan.Inputs[i]
		}
	}
	return math.NaN()
}

// nearDegenerateLoop builds a profitable loop whose price product is
// 1 + 2⁻⁵², the next float64 above 1. With unit reserves the MaxMax plan
// is so small that no uniform shrink of it is strictly interior in
// float64 — the loop the barrier method cannot start on.
func nearDegenerateLoop(t testing.TB) (*Loop, PriceMap) {
	t.Helper()
	g := 1 - 0.003
	// prod = γ²·(r1out/r1in)·(r2out/r2in) = 1 + 2⁻⁵².
	r2out := (1 + 0x1p-52) / (g * g)
	l, err := NewLoop([]Hop{
		{Pool: amm.MustNewPool("d1", "A", "B", 1, 1, 0.003), TokenIn: "A"},
		{Pool: amm.MustNewPool("d2", "B", "A", 1, r2out, 0.003), TokenIn: "B"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, PriceMap{"A": 2, "B": 3}
}

// TestConvexDegenerateFallsBackToMaxMax is the no-interior regression: on
// a profitable but near-degenerate loop Convex returns MaxMax's plan and
// profit exactly, and the dense reference falls back to the MaxMax plan
// — an error from neither.
func TestConvexDegenerateFallsBackToMaxMax(t *testing.T) {
	l, prices := nearDegenerateLoop(t)
	profitable, err := l.Profitable()
	if err != nil {
		t.Fatal(err)
	}
	if !profitable {
		t.Fatal("degenerate fixture is not profitable; the regression needs price product > 1")
	}
	// The interior truly is unreachable: this is what made the old code
	// error with "failed to find interior point".
	if x0, err := warmStart(l, prices); err == nil {
		t.Fatalf("fixture has an interior point %v; regression premise gone", x0)
	}
	mm, err := MaxMax(l, prices)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Convex(l, prices)
	if err != nil {
		t.Fatalf("Convex on near-degenerate loop: %v", err)
	}
	if fast.Strategy != NameConvex {
		t.Errorf("exact result strategy = %q", fast.Strategy)
	}
	if fast.Monetized != mm.Monetized {
		t.Errorf("exact monetized %g, MaxMax %g", fast.Monetized, mm.Monetized)
	}
	for i := 0; i < l.Len(); i++ {
		tok := l.Token(i)
		if got, want := planInputFor(fast, tok), planInputFor(mm, tok); got != want {
			t.Errorf("exact input[%s] = %g, MaxMax %g", tok, got, want)
		}
	}
	ref, err := convexReference(l, prices)
	if err != nil {
		t.Fatalf("convexReference on near-degenerate loop: %v", err)
	}
	if ref.Strategy != NameConvex {
		t.Errorf("reference fallback result strategy = %q", ref.Strategy)
	}
	if d := math.Abs(ref.Monetized - mm.Monetized); d > 1e-12*(1+math.Abs(mm.Monetized)) {
		t.Errorf("reference fallback monetized %g, MaxMax %g", ref.Monetized, mm.Monetized)
	}
	if ref.Monetized < 0 {
		t.Errorf("reference fallback monetized negative: %g", ref.Monetized)
	}
}

// paperLoopExtended is the Section V loop with its closing hop Z→X
// re-routed through n−3 stable tokens priced $1: a deep Z→W1 pool at the
// CEX rate, deep W→W pools at par, and a shallow W→X pool carrying the
// original closing hop's rate and depth. Like the Section V loop, its
// optimum nets Y and Z, so the best rotation fails the certificate.
func paperLoopExtended(t testing.TB, n int) (*Loop, PriceMap) {
	t.Helper()
	prices := PriceMap{"X": 2, "Y": 10.2, "Z": 20}
	hops := []Hop{
		{Pool: amm.MustNewPool("p1", "X", "Y", 100, 200, 0.003), TokenIn: "X"},
		{Pool: amm.MustNewPool("p2", "Y", "Z", 300, 200, 0.003), TokenIn: "Y"},
	}
	prev := "Z"
	for k := 1; k <= n-3; k++ {
		w := fmt.Sprintf("W%d", k)
		prices[w] = 1
		rin, rout := 1e6, 1e6
		if k == 1 {
			rin, rout = 1e5, 2e6
		}
		hops = append(hops, Hop{Pool: amm.MustNewPool("p"+w, prev, w, rin, rout, 0.003), TokenIn: prev})
		prev = w
	}
	hops = append(hops, Hop{Pool: amm.MustNewPool("pX", prev, "X", 4000, 400, 0.003), TokenIn: prev})
	l, err := NewLoop(hops)
	if err != nil {
		t.Fatal(err)
	}
	return l, prices
}

// TestConvexEnumeratesWhenCertificateFails drives the face enumeration
// at n = 4 and at n = 12, the longest loop any test solves: the solve
// counts an enumeration, agrees with the dense reference, and serves the
// optimum's two positive nets with every other token netting exactly 0.
// Past maxFaceLen hops the failed certificate is an ErrLoopTooLong.
func TestConvexEnumeratesWhenCertificateFails(t *testing.T) {
	long, longPrices := paperLoopExtended(t, maxFaceLen+1)
	enums := Telemetry().Enumerations.Load()
	if _, err := Convex(long, longPrices); !errors.Is(err, ErrLoopTooLong) {
		t.Errorf("n=%d: err = %v, want ErrLoopTooLong", maxFaceLen+1, err)
	}
	if got := Telemetry().Enumerations.Load() - enums; got != 1 {
		t.Errorf("n=%d: Enumerations advanced by %d, want 1", maxFaceLen+1, got)
	}

	for _, n := range []int{4, 12} {
		l, prices := paperLoopExtended(t, n)
		tel := Telemetry()
		solves, enums := tel.Solves.Load(), tel.Enumerations.Load()
		cv := requireMatchesReference(t, fmt.Sprintf("n=%d", n), l, prices)
		// Neither the reference nor MaxMax solves through Convex, so the
		// one Convex call is the only solve counted.
		if got := tel.Solves.Load() - solves; got != 1 {
			t.Errorf("n=%d: Solves advanced by %d, want 1", n, got)
		}
		if got := tel.Enumerations.Load() - enums; got != 1 {
			t.Errorf("n=%d: Enumerations advanced by %d, want 1 (certificate should fail)", n, got)
		}
		for tok, v := range cv.NetTokens {
			switch tok {
			case "Y", "Z":
				if !(v > 0) {
					t.Errorf("n=%d: net %s = %g, want > 0", n, tok, v)
				}
			default:
				if v != 0 {
					t.Errorf("n=%d: net %s = %g, want exactly 0", n, tok, v)
				}
			}
		}
	}
}

// TestConvexWorkspaceReuseAcrossLengths: one workspace serves solves of
// different loop lengths back to back, certified and enumerating alike,
// with results bit-identical to a fresh workspace's.
func TestConvexWorkspaceReuseAcrossLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	solve := func(w *convexWS, l *Loop, prices PriceMap) Result {
		t.Helper()
		if err := w.stage(l, prices); err != nil {
			t.Fatal(err)
		}
		if !w.solve() {
			t.Fatalf("%s: solve refused", l)
		}
		r, err := w.result(NameConvex, l, -1)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	shared := new(convexWS)
	for _, n := range []int{5, 2, 12, 3, 4} {
		l, prices := randomProfitableLoop(t, rng, n)
		requireSameResult(t, fmt.Sprintf("n=%d random", n), solve(shared, l, prices), solve(new(convexWS), l, prices))
		if n >= 3 {
			l, prices = paperLoopExtended(t, n)
			requireSameResult(t, fmt.Sprintf("n=%d enumerating", n), solve(shared, l, prices), solve(new(convexWS), l, prices))
		}
	}
}

// requireSameResult asserts got is want bit for bit.
func requireSameResult(t *testing.T, name string, got, want Result) {
	t.Helper()
	if got.Strategy != want.Strategy || got.Loop != want.Loop || got.StartToken != want.StartToken ||
		got.Input != want.Input || got.Monetized != want.Monetized ||
		!slices.Equal(got.Plan.Inputs, want.Plan.Inputs) || !slices.Equal(got.Plan.Outputs, want.Plan.Outputs) ||
		!maps.Equal(got.NetTokens, want.NetTokens) {
		t.Errorf("%s: results differ:\ngot  %+v\nwant %+v", name, got, want)
	}
}

// TestConvexStructuredAllocBudget pins each strategy's allocations per
// call at length 4. The solve itself allocates nothing once the pooled
// workspace is sized (TestConvexSolveAllocFree), so a call pays for its
// Result: the plan slices and the net map, plus the rotated loop for a
// single-start strategy (7 for those, 4 for Convex and ConvexRisky). Each
// budget adds one whole workspace (8 allocations), the most a call can
// pay when sync.Pool drops it, as it deliberately does at random under
// the race detector. Before every strategy ran on the one kernel, MaxMax
// built n Results and allocated 29 here.
func TestConvexStructuredAllocBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	l, prices := randomProfitableLoop(t, rng, 4)
	const workspace = 8
	for _, c := range []struct {
		name   string
		result int
		run    func() (Result, error)
	}{
		{NameTraditional, 7, func() (Result, error) { return Traditional(l, l.Token(1), prices) }},
		{NameMaxPrice, 7, func() (Result, error) { return MaxPrice(l, prices) }},
		{NameMaxMax, 7, func() (Result, error) { return MaxMax(l, prices) }},
		{NameConvex, 4, func() (Result, error) { return Convex(l, prices) }},
		{NameConvexRisky, 4, func() (Result, error) { return ConvexRisky(l, prices) }},
	} {
		if _, err := c.run(); err != nil { // warm the pool
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := c.run(); err != nil {
				t.Fatal(err)
			}
		})
		if budget := c.result + workspace; allocs > float64(budget) {
			t.Errorf("%s allocates %.1f/call, budget %d", c.name, allocs, budget)
		}
	}
}

// TestConvexSolveAllocFree pins the exact solve's allocation budget: the
// solve itself, certificate and face enumeration alike, touches the
// allocator zero times once its workspace is sized.
func TestConvexSolveAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	l, prices := randomProfitableLoop(t, rng, 4)
	el, eprices := paperLoopExtended(t, 12)
	for _, c := range []struct {
		name       string
		l          *Loop
		prices     PriceMap
		enumerates bool
	}{
		{"certified", l, prices, false},
		{"enumerating", el, eprices, true},
	} {
		w := new(convexWS)
		if err := w.stage(c.l, c.prices); err != nil {
			t.Fatal(err)
		}
		enums := Telemetry().Enumerations.Load()
		w.solve()
		if got := Telemetry().Enumerations.Load() > enums; got != c.enumerates {
			t.Fatalf("%s fixture: enumerated %v, want %v", c.name, got, c.enumerates)
		}
		if allocs := testing.AllocsPerRun(20, func() { w.solve() }); allocs != 0 {
			t.Errorf("%s solve allocates %.1f, want 0", c.name, allocs)
		}
	}
}

// BenchmarkConvexEnumerateLen12 times Convex on the length-12 loop whose
// best rotation fails the certificate: the face enumeration at the
// longest loop any test uses, the worst case Convex's doc states.
func BenchmarkConvexEnumerateLen12(b *testing.B) {
	l, prices := paperLoopExtended(b, 12)
	for b.Loop() {
		if _, err := Convex(l, prices); err != nil {
			b.Fatal(err)
		}
	}
}
