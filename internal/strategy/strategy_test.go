package strategy

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"arbloop/internal/amm"
)

// paperLoop returns the Section V example loop X→Y→Z→X with pools
// (x,y)=(100,200), (y,z)=(300,200), (z,x)=(200,400) and λ=0.003.
func paperLoop(t testing.TB) *Loop {
	t.Helper()
	l, err := NewLoop([]Hop{
		{Pool: amm.MustNewPool("p1", "X", "Y", 100, 200, 0.003), TokenIn: "X"},
		{Pool: amm.MustNewPool("p2", "Y", "Z", 300, 200, 0.003), TokenIn: "Y"},
		{Pool: amm.MustNewPool("p3", "Z", "X", 200, 400, 0.003), TokenIn: "Z"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// paperPrices are the Section V CEX prices.
func paperPrices() PriceMap { return PriceMap{"X": 2, "Y": 10.2, "Z": 20} }

// noArbLoop has perfectly consistent prices, so fees kill any profit.
func noArbLoop(t testing.TB) *Loop {
	t.Helper()
	l, err := NewLoop([]Hop{
		{Pool: amm.MustNewPool("q1", "X", "Y", 100, 200, 0.003), TokenIn: "X"},
		{Pool: amm.MustNewPool("q2", "Y", "Z", 200, 100, 0.003), TokenIn: "Y"},
		{Pool: amm.MustNewPool("q3", "Z", "X", 100, 100, 0.003), TokenIn: "Z"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// randomLoop builds a random 3-loop, sometimes profitable, sometimes not.
func randomLoop(tb testing.TB, rng *rand.Rand) *Loop {
	tb.Helper()
	r := func() float64 { return rng.Float64()*900 + 100 }
	l, err := NewLoop([]Hop{
		{Pool: amm.MustNewPool("r1", "X", "Y", r(), r(), 0.003), TokenIn: "X"},
		{Pool: amm.MustNewPool("r2", "Y", "Z", r(), r(), 0.003), TokenIn: "Y"},
		{Pool: amm.MustNewPool("r3", "Z", "X", r(), r(), 0.003), TokenIn: "Z"},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return l
}

func TestNewLoopValidation(t *testing.T) {
	pXY := amm.MustNewPool("p1", "X", "Y", 100, 200, 0.003)
	pYZ := amm.MustNewPool("p2", "Y", "Z", 300, 200, 0.003)
	pZX := amm.MustNewPool("p3", "Z", "X", 200, 400, 0.003)
	pXW := amm.MustNewPool("p4", "X", "W", 100, 100, 0.003)

	tests := []struct {
		name string
		hops []Hop
	}{
		{name: "too short", hops: []Hop{{Pool: pXY, TokenIn: "X"}}},
		{name: "nil pool", hops: []Hop{{TokenIn: "X"}, {Pool: pYZ, TokenIn: "Y"}}},
		{name: "token not in pool", hops: []Hop{{Pool: pXY, TokenIn: "Q"}, {Pool: pYZ, TokenIn: "Y"}}},
		{name: "not closed", hops: []Hop{{Pool: pXY, TokenIn: "X"}, {Pool: pXW, TokenIn: "X"}}},
		{name: "broken chain", hops: []Hop{{Pool: pXY, TokenIn: "X"}, {Pool: pZX, TokenIn: "Z"}, {Pool: pYZ, TokenIn: "Y"}}},
		{name: "repeated pool", hops: []Hop{{Pool: pXY, TokenIn: "X"}, {Pool: pXY, TokenIn: "Y"}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewLoop(tt.hops); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestLoopAccessors(t *testing.T) {
	l := paperLoop(t)
	if l.Len() != 3 {
		t.Errorf("Len = %d", l.Len())
	}
	if got := l.Tokens(); got[0] != "X" || got[1] != "Y" || got[2] != "Z" {
		t.Errorf("Tokens = %v", got)
	}
	if !l.HasToken("Y") || l.HasToken("W") {
		t.Error("HasToken broken")
	}
	if s := l.String(); s != "X→Y→Z→X" {
		t.Errorf("String = %q", s)
	}
	hops := l.Hops()
	hops[0] = Hop{}
	if l.Hop(0).Pool == nil {
		t.Error("Hops() exposes internals")
	}
}

func TestLoopRotate(t *testing.T) {
	l := paperLoop(t)
	r := l.Rotate(1)
	if got := r.Tokens(); got[0] != "Y" || got[2] != "X" {
		t.Errorf("Rotate(1).Tokens = %v", got)
	}
	r2, err := l.RotateToStart("Z")
	if err != nil {
		t.Fatal(err)
	}
	if r2.Tokens()[0] != "Z" {
		t.Errorf("RotateToStart(Z) = %v", r2.Tokens())
	}
	if _, err := l.RotateToStart("W"); err == nil {
		t.Error("unknown start: want error")
	}
	// Rotation must preserve the price product.
	p0, _ := l.PriceProduct()
	p1, _ := r.PriceProduct()
	if math.Abs(p0-p1) > 1e-12*p0 {
		t.Errorf("rotation changed price product: %g vs %g", p0, p1)
	}
}

func TestPriceMapValidate(t *testing.T) {
	l := paperLoop(t)
	if err := paperPrices().Validate(l); err != nil {
		t.Errorf("valid prices rejected: %v", err)
	}
	if err := (PriceMap{"X": 2, "Y": 1}).Validate(l); err == nil {
		t.Error("missing Z price: want error")
	}
	if err := (PriceMap{"X": 2, "Y": 1, "Z": -3}).Validate(l); err == nil {
		t.Error("negative price: want error")
	}
	if err := (PriceMap{"X": 2, "Y": 1, "Z": math.NaN()}).Validate(l); err == nil {
		t.Error("NaN price: want error")
	}
}

// TestPaperExampleT1Traditional verifies the paper's Section V per-start
// numbers: inputs (27.0, 31.5, 16.4), token profits (16.8, 19.7, 10.3),
// monetized (33.7, 201.1, 205.6).
func TestPaperExampleT1Traditional(t *testing.T) {
	l := paperLoop(t)
	prices := paperPrices()

	tests := []struct {
		start         string
		wantInput     float64
		wantProfit    float64
		wantMonetized float64
	}{
		{start: "X", wantInput: 27.0, wantProfit: 16.8, wantMonetized: 33.7},
		{start: "Y", wantInput: 31.5, wantProfit: 19.7, wantMonetized: 201.1},
		{start: "Z", wantInput: 16.4, wantProfit: 10.3, wantMonetized: 205.6},
	}
	for _, tt := range tests {
		t.Run("start "+tt.start, func(t *testing.T) {
			r, err := Traditional(l, tt.start, prices)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(r.Input-tt.wantInput) > 0.05 {
				t.Errorf("input = %.3f, paper %.1f", r.Input, tt.wantInput)
			}
			profit := r.NetTokens[tt.start]
			if math.Abs(profit-tt.wantProfit) > 0.1 {
				t.Errorf("profit = %.3f %s, paper %.1f", profit, tt.start, tt.wantProfit)
			}
			if math.Abs(r.Monetized-tt.wantMonetized) > 0.5 {
				t.Errorf("monetized = %.2f$, paper %.1f$", r.Monetized, tt.wantMonetized)
			}
			// Intermediate tokens net zero for single-start strategies.
			for tok, v := range r.NetTokens {
				if tok != tt.start && math.Abs(v) > 1e-9 {
					t.Errorf("net %s = %g, want 0", tok, v)
				}
			}
			if r.Strategy != NameTraditional || r.StartToken != tt.start {
				t.Errorf("result meta: strategy=%q start=%q", r.Strategy, r.StartToken)
			}
		})
	}
}

func TestPaperExampleT1MaxMax(t *testing.T) {
	l := paperLoop(t)
	r, err := MaxMax(l, paperPrices())
	if err != nil {
		t.Fatal(err)
	}
	if r.StartToken != "Z" {
		t.Errorf("MaxMax start = %q, paper picks Z", r.StartToken)
	}
	if math.Abs(r.Monetized-205.6) > 0.5 {
		t.Errorf("MaxMax monetized = %.2f$, paper 205.6$", r.Monetized)
	}
	if r.Strategy != NameMaxMax {
		t.Errorf("strategy = %q", r.Strategy)
	}
}

func TestPaperExampleT1MaxPrice(t *testing.T) {
	l := paperLoop(t)
	r, err := MaxPrice(l, paperPrices())
	if err != nil {
		t.Fatal(err)
	}
	// Z has the highest CEX price (20$), so MaxPrice starts from Z here
	// and coincides with MaxMax.
	if r.StartToken != "Z" {
		t.Errorf("MaxPrice start = %q, want Z", r.StartToken)
	}
	if math.Abs(r.Monetized-205.6) > 0.5 {
		t.Errorf("MaxPrice monetized = %.2f$, want 205.6$", r.Monetized)
	}
}

// TestMaxPriceUnreliable reproduces the paper's Fig. 2 observation: at
// P_x = 15$ the X start beats the MaxPrice (Z) start even though Z has the
// highest CEX price.
func TestMaxPriceUnreliable(t *testing.T) {
	l := paperLoop(t)
	prices := PriceMap{"X": 15, "Y": 10.2, "Z": 20}

	mp, err := MaxPrice(l, prices)
	if err != nil {
		t.Fatal(err)
	}
	if mp.StartToken != "Z" {
		t.Fatalf("MaxPrice start = %q, want Z (highest price)", mp.StartToken)
	}
	mm, err := MaxMax(l, prices)
	if err != nil {
		t.Fatal(err)
	}
	if mm.StartToken != "X" {
		t.Errorf("MaxMax start = %q, want X at Px=15", mm.StartToken)
	}
	if mm.Monetized <= mp.Monetized+1 {
		t.Errorf("MaxMax %.1f$ should clearly beat MaxPrice %.1f$", mm.Monetized, mp.Monetized)
	}
}

func TestTraditionalAllCoversEveryStart(t *testing.T) {
	l := paperLoop(t)
	all, err := TraditionalAll(l, paperPrices())
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("results = %d, want 3", len(all))
	}
	starts := map[string]bool{}
	for _, r := range all {
		starts[r.StartToken] = true
	}
	for _, tok := range []string{"X", "Y", "Z"} {
		if !starts[tok] {
			t.Errorf("missing start %s", tok)
		}
	}
}

func TestStrategiesRejectBadPrices(t *testing.T) {
	l := paperLoop(t)
	bad := PriceMap{"X": 1, "Y": 2}
	if _, err := Traditional(l, "X", bad); err == nil {
		t.Error("Traditional missing price: want error")
	}
	if _, err := MaxPrice(l, bad); err == nil {
		t.Error("MaxPrice missing price: want error")
	}
	if _, err := MaxMax(l, bad); err == nil {
		t.Error("MaxMax missing price: want error")
	}
	if _, err := Convex(l, bad); err == nil {
		t.Error("Convex missing price: want error")
	}
	if _, err := Traditional(l, "W", paperPrices()); err == nil {
		t.Error("unknown start token: want error")
	}
}

// TestPaperExampleT1Convex verifies the paper's convex plan: monetized
// ≈ 206.1$, inputs ≈ (31.3 X, 42.6 Y, 17.1 Z), outputs ≈ (47.6 Y, 24.8 Z,
// 31.3 X), net profit ≈ 5 Y + 7.7 Z.
func TestPaperExampleT1Convex(t *testing.T) {
	l := paperLoop(t)
	r, err := Convex(l, paperPrices())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Monetized-206.1) > 0.5 {
		t.Errorf("Convex monetized = %.2f$, paper 206.1$", r.Monetized)
	}
	wantIn := []float64{31.3, 42.6, 17.1}
	wantOut := []float64{47.6, 24.8, 31.3}
	for i := range wantIn {
		if math.Abs(r.Plan.Inputs[i]-wantIn[i]) > 0.2 {
			t.Errorf("input[%d] = %.2f, paper %.1f", i, r.Plan.Inputs[i], wantIn[i])
		}
		if math.Abs(r.Plan.Outputs[i]-wantOut[i]) > 0.2 {
			t.Errorf("output[%d] = %.2f, paper %.1f", i, r.Plan.Outputs[i], wantOut[i])
		}
	}
	if math.Abs(r.NetTokens["Y"]-5.0) > 0.2 {
		t.Errorf("net Y = %.2f, paper ≈ 5.0", r.NetTokens["Y"])
	}
	if math.Abs(r.NetTokens["Z"]-7.7) > 0.2 {
		t.Errorf("net Z = %.2f, paper ≈ 7.7", r.NetTokens["Z"])
	}
	if math.Abs(r.NetTokens["X"]) > 0.05 {
		t.Errorf("net X = %.3f, paper ≈ 0", r.NetTokens["X"])
	}
	// The convex strategy needs more input than MaxMax (paper remark).
	mm, err := MaxMax(l, paperPrices())
	if err != nil {
		t.Fatal(err)
	}
	if r.Plan.Inputs[0] <= mm.Input {
		t.Logf("note: convex input[0]=%.2f, MaxMax input=%.2f", r.Plan.Inputs[0], mm.Input)
	}
}

func TestConvexDominatesMaxMaxOnPaperExample(t *testing.T) {
	l := paperLoop(t)
	mm, err := MaxMax(l, paperPrices())
	if err != nil {
		t.Fatal(err)
	}
	cv, err := Convex(l, paperPrices())
	if err != nil {
		t.Fatal(err)
	}
	if cv.Monetized < mm.Monetized-1e-6 {
		t.Errorf("Convex %.4f$ < MaxMax %.4f$", cv.Monetized, mm.Monetized)
	}
}

func TestNoArbLoopAllStrategiesZero(t *testing.T) {
	l := noArbLoop(t)
	prices := PriceMap{"X": 2, "Y": 1, "Z": 2}

	if p, _ := l.PriceProduct(); p >= 1 {
		t.Fatalf("test loop unexpectedly profitable: Πp = %g", p)
	}
	for _, tok := range []string{"X", "Y", "Z"} {
		r, err := Traditional(l, tok, prices)
		if err != nil {
			t.Fatal(err)
		}
		if r.Monetized != 0 || r.Input != 0 {
			t.Errorf("Traditional(%s) = %.3g$ input %.3g, want 0", tok, r.Monetized, r.Input)
		}
	}
	cv, err := Convex(l, prices)
	if err != nil {
		t.Fatal(err)
	}
	if cv.Monetized != 0 {
		t.Errorf("Convex = %.3g$, want exactly 0 (§IV theorem)", cv.Monetized)
	}
	if err := VerifyNoArbEquivalence(l, prices, 1e-9); err != nil {
		t.Error(err)
	}
}

// Property: MaxMax dominates MaxPrice and every traditional start with
// zero tolerance (all are rotations of one kernel), and the optimum
// satisfies the stationarity condition F'(Δ*) = 1 on profitable loops.
func TestMaxMaxDominanceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for n := 3; n <= 6; n++ {
		for trial := 0; trial < 50; trial++ {
			l, prices := randomLoopLen(t, rng, n)
			if trial%4 == 0 {
				prices[l.Token(trial%n)] = 0
			}
			mm, err := MaxMax(l, prices)
			if err != nil {
				t.Fatal(err)
			}
			all, err := TraditionalAll(l, prices)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range all {
				if r.Monetized > mm.Monetized {
					t.Fatalf("n=%d trial %d: Traditional(%s) %.17g > MaxMax %.17g",
						n, trial, r.StartToken, r.Monetized, mm.Monetized)
				}
			}
			mp, err := MaxPrice(l, prices)
			if err != nil {
				t.Fatal(err)
			}
			if mp.Monetized > mm.Monetized {
				t.Fatalf("n=%d trial %d: MaxPrice %.17g > MaxMax %.17g", n, trial, mp.Monetized, mm.Monetized)
			}
			if profitable, _ := l.Profitable(); profitable {
				rot, err := l.RotateToStart(mm.StartToken)
				if err != nil {
					t.Fatal(err)
				}
				m, err := rot.Mobius()
				if err != nil {
					t.Fatal(err)
				}
				if d := m.Deriv(mm.Input); math.Abs(d-1) > 1e-6 {
					t.Errorf("n=%d trial %d: F'(Δ*) = %.9g, want 1", n, trial, d)
				}
			}
		}
	}
}

// Property: Convex ≥ MaxMax with zero tolerance on random loops (paper
// §IV dominance): Convex starts from the same kernel's best rotation and
// replaces it only with a strictly better face.
func TestConvexDominanceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for n := 3; n <= 6; n++ {
		for trial := 0; trial < 40; trial++ {
			l, prices := randomLoopLen(t, rng, n)
			if trial%4 == 0 {
				prices[l.Token(trial%n)] = 0
			}
			mm, err := MaxMax(l, prices)
			if err != nil {
				t.Fatal(err)
			}
			cv, err := Convex(l, prices)
			if err != nil {
				t.Fatalf("n=%d trial %d (%s): %v", n, trial, l, err)
			}
			if cv.Monetized < mm.Monetized {
				t.Errorf("n=%d trial %d: Convex %.17g < MaxMax %.17g", n, trial, cv.Monetized, mm.Monetized)
			}
		}
	}
}

// Property: the convex plan never shorts a token (every net amount ≥ 0
// exactly) and the flow constraints hold exactly.
func TestConvexPlanFeasibilityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		l := randomLoop(t, rng)
		prices := PriceMap{"X": 3, "Y": 5, "Z": 7}
		cv, err := Convex(l, prices)
		if err != nil {
			t.Fatal(err)
		}
		for tok, v := range cv.NetTokens {
			if !(v >= 0) {
				t.Errorf("trial %d: net %s = %g (shorting)", trial, tok, v)
			}
		}
		n := l.Len()
		for i := 0; i < n; i++ {
			if next := (i + 1) % n; cv.Plan.Inputs[next] > cv.Plan.Outputs[i] {
				t.Errorf("trial %d: hop %d consumes %g, hop %d produced %g", trial, next, cv.Plan.Inputs[next], i, cv.Plan.Outputs[i])
			}
		}
	}
}

func TestOptimizerAblationsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		l := randomLoop(t, rng)
		closed, err := OptimalInputClosedForm(l)
		if err != nil {
			t.Fatal(err)
		}
		if profitable, _ := l.Profitable(); !profitable {
			if closed != 0 {
				t.Errorf("closed form on no-arb loop = %g, want 0", closed)
			}
			continue
		}
		bis, err := OptimalInputBisection(l)
		if err != nil {
			t.Fatalf("bisection: %v", err)
		}
		gold, err := OptimalInputGolden(l)
		if err != nil {
			t.Fatalf("golden: %v", err)
		}
		tol := 1e-5 * (1 + closed)
		if math.Abs(bis-closed) > tol {
			t.Errorf("trial %d: bisection %.9g vs closed %.9g", trial, bis, closed)
		}
		if math.Abs(gold-closed) > tol {
			t.Errorf("trial %d: golden %.9g vs closed %.9g", trial, gold, closed)
		}
	}
}

func TestOptimalInputAblationsOnNoArb(t *testing.T) {
	l := noArbLoop(t)
	bis, err := OptimalInputBisection(l)
	if err != nil || bis != 0 {
		t.Errorf("bisection on no-arb = %g, %v; want 0", bis, err)
	}
	gold, err := OptimalInputGolden(l)
	if err != nil || gold != 0 {
		t.Errorf("golden on no-arb = %g, %v; want 0", gold, err)
	}
}

func TestMonetizeDeterministic(t *testing.T) {
	l := paperLoop(t) // tokens X, Y, Z in loop order
	net := map[string]float64{"X": 1, "Y": 2, "Z": 3}
	prices := PriceMap{"X": 0.1, "Y": 0.2, "Z": 0.3}
	first, err := Monetize(l, net, prices)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1*0.1 + 2*0.2 + 3*0.3; first != want {
		t.Fatalf("Monetize = %g, want %g", first, want)
	}
	for i := 0; i < 10; i++ {
		again, err := Monetize(l, net, prices)
		if err != nil {
			t.Fatal(err)
		}
		if again != first {
			t.Fatal("Monetize not deterministic across map iteration orders")
		}
	}
	if _, err := Monetize(l, net, PriceMap{"X": 1}); err == nil {
		t.Error("missing price: want error")
	}
}

// TestMonetizeAllocFree pins the satellite fix: accumulation in
// loop-token order needs no key slice and no sort.
func TestMonetizeAllocFree(t *testing.T) {
	l := paperLoop(t)
	net := map[string]float64{"X": 1, "Y": 2, "Z": 3}
	prices := paperPrices()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Monetize(l, net, prices); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Monetize allocates %.0f/call, want 0", allocs)
	}
}

// Property (quick): longer loops still satisfy MaxMax ≥ Traditional and
// stationarity.
func TestLongerLoopsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(3) // loops of length 4-6
		toks := make([]string, n)
		for i := range toks {
			toks[i] = fmt.Sprintf("T%d", i)
		}
		hops := make([]Hop, n)
		prices := PriceMap{}
		for i := range hops {
			next := toks[(i+1)%n]
			hops[i] = Hop{
				Pool: amm.MustNewPool(fmt.Sprintf("p%d", i), toks[i], next,
					rng.Float64()*900+100, rng.Float64()*900+100, 0.003),
				TokenIn: toks[i],
			}
			prices[toks[i]] = rng.Float64()*10 + 0.1
		}
		l, err := NewLoop(hops)
		if err != nil {
			return false
		}
		mm, err := MaxMax(l, prices)
		if err != nil {
			return false
		}
		all, err := TraditionalAll(l, prices)
		if err != nil {
			return false
		}
		for _, r := range all {
			if r.Monetized > mm.Monetized+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestConvexOnLongerLoop(t *testing.T) {
	// A 5-token loop with a strong price inconsistency.
	toks := []string{"A", "B", "C", "D", "E"}
	reserves := [][2]float64{{100, 220}, {300, 310}, {150, 170}, {400, 390}, {250, 260}}
	hops := make([]Hop, 5)
	prices := PriceMap{}
	for i := range hops {
		hops[i] = Hop{
			Pool: amm.MustNewPool(fmt.Sprintf("p%d", i), toks[i], toks[(i+1)%5],
				reserves[i][0], reserves[i][1], 0.003),
			TokenIn: toks[i],
		}
		prices[toks[i]] = float64(i + 1)
	}
	l, err := NewLoop(hops)
	if err != nil {
		t.Fatal(err)
	}
	profitable, err := l.Profitable()
	if err != nil {
		t.Fatal(err)
	}
	if !profitable {
		t.Skip("constructed loop not profitable")
	}
	mm, err := MaxMax(l, prices)
	if err != nil {
		t.Fatal(err)
	}
	cv, err := Convex(l, prices)
	if err != nil {
		t.Fatal(err)
	}
	if cv.Monetized < mm.Monetized-1e-6*(1+mm.Monetized) {
		t.Errorf("Convex %.6g < MaxMax %.6g on 5-loop", cv.Monetized, mm.Monetized)
	}
}

// twoPoolLoop builds a length-2 loop: two pools on the same token pair
// with different reserve ratios (a common real-world arbitrage on DEXs
// with duplicated pairs).
func twoPoolLoop(t testing.TB) *Loop {
	t.Helper()
	l, err := NewLoop([]Hop{
		{Pool: amm.MustNewPool("d1", "X", "Y", 100, 250, 0.003), TokenIn: "X"},
		{Pool: amm.MustNewPool("d2", "X", "Y", 300, 600, 0.003), TokenIn: "Y"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestTwoPoolLoopStrategies(t *testing.T) {
	l := twoPoolLoop(t)
	prices := PriceMap{"X": 3, "Y": 1.5}

	profitable, err := l.Profitable()
	if err != nil {
		t.Fatal(err)
	}
	if !profitable {
		t.Fatal("ratio 2.5 vs 2.0 must be an arbitrage")
	}
	mm, err := MaxMax(l, prices)
	if err != nil {
		t.Fatal(err)
	}
	if mm.Monetized <= 0 {
		t.Errorf("MaxMax on 2-loop = %g", mm.Monetized)
	}
	cv, err := Convex(l, prices)
	if err != nil {
		t.Fatal(err)
	}
	if cv.Monetized < mm.Monetized-1e-6*(1+mm.Monetized) {
		t.Errorf("Convex %.6f < MaxMax %.6f on 2-loop", cv.Monetized, mm.Monetized)
	}
	risky, err := ConvexRisky(l, prices)
	if err != nil {
		t.Fatal(err)
	}
	if risky.Monetized < cv.Monetized-1e-6*(1+cv.Monetized) {
		t.Errorf("Risky %.6f < Convex %.6f on 2-loop", risky.Monetized, cv.Monetized)
	}
}

// TestConvexOnLongLoops exercises the convex solve at the paper's
// length-10 discussion point and beyond.
func TestConvexOnLongLoops(t *testing.T) {
	for _, n := range []int{8, 10, 12} {
		hops := make([]Hop, n)
		prices := PriceMap{}
		for i := range hops {
			tok := fmt.Sprintf("L%02d", i)
			next := fmt.Sprintf("L%02d", (i+1)%n)
			r0, r1 := 1000.0, 1000.0
			if i == 0 {
				r1 = 1150
			}
			hops[i] = Hop{
				Pool:    amm.MustNewPool(fmt.Sprintf("lp%02d", i), tok, next, r0, r1, 0.003),
				TokenIn: tok,
			}
			prices[tok] = 1 + 0.05*float64(i)
		}
		l, err := NewLoop(hops)
		if err != nil {
			t.Fatal(err)
		}
		mm, err := MaxMax(l, prices)
		if err != nil {
			t.Fatal(err)
		}
		cv, err := Convex(l, prices)
		if err != nil {
			t.Fatalf("length %d: %v", n, err)
		}
		if cv.Monetized < mm.Monetized-1e-6*(1+mm.Monetized) {
			t.Errorf("length %d: Convex %.6f < MaxMax %.6f", n, cv.Monetized, mm.Monetized)
		}
	}
}
