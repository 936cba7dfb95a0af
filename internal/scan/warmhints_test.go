package scan

import (
	"math"
	"testing"
	"time"

	"arbloop/internal/amm"
	"arbloop/internal/strategy"
	"arbloop/internal/telemetry"
)

// hintLoop builds a 3-hop loop over the given token cycle with balanced
// unit pools — enough structure for Tokens()/Token() to work.
func hintLoop(t *testing.T, tokens []string) *strategy.Loop {
	t.Helper()
	hops := make([]strategy.Hop, len(tokens))
	for i := range tokens {
		in, out := tokens[i], tokens[(i+1)%len(tokens)]
		p, err := amm.NewPool("P-"+in+out, in, out, 1000, 1000, 0.003)
		if err != nil {
			t.Fatal(err)
		}
		hops[i] = strategy.Hop{Pool: p, TokenIn: in}
	}
	l, err := strategy.NewLoop(hops)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestWarmHintsMatchRotation(t *testing.T) {
	// Hint recorded in rotation (B, C, A); loop re-detected as (A, B, C).
	wh := &WarmHints{}
	if !wh.Stage([]WarmHint{{
		Tokens: []string{"B", "C", "A"},
		Inputs: []float64{2, 3, 1},
	}}) {
		t.Fatal("hint set empty")
	}
	l := hintLoop(t, []string{"A", "B", "C"})
	prev := wh.take([]*strategy.Loop{l})
	if prev == nil || prev[0] == nil {
		t.Fatal("rotated hint did not match")
	}
	if prev[0].Loop != l {
		t.Fatal("prev not anchored on the detected loop")
	}
	// B's input (2) must land at the loop's B position (index 1), etc.
	want := []float64{1, 2, 3}
	for i, v := range prev[0].Plan.Inputs {
		if v != want[i] {
			t.Fatalf("aligned inputs = %v, want %v", prev[0].Plan.Inputs, want)
		}
	}
}

func TestWarmHintsTakeOnce(t *testing.T) {
	wh := &WarmHints{}
	wh.Stage([]WarmHint{{Tokens: []string{"A", "B", "C"}, Inputs: []float64{1, 2, 3}}})
	l := hintLoop(t, []string{"A", "B", "C"})
	if prev := wh.take([]*strategy.Loop{l}); prev == nil {
		t.Fatal("first take matched nothing")
	}
	if prev := wh.take([]*strategy.Loop{l}); prev != nil {
		t.Fatal("second take returned hints again")
	}
}

func TestWarmHintsRejectsGarbage(t *testing.T) {
	l := hintLoop(t, []string{"A", "B", "C"})
	cases := []WarmHint{
		{Tokens: []string{"A", "B", "C"}, Inputs: []float64{1, math.NaN(), 3}},
		{Tokens: []string{"A", "B", "C"}, Inputs: []float64{1, math.Inf(1), 3}},
		{Tokens: []string{"A", "B", "C"}, Inputs: []float64{1, -2, 3}},
		{Tokens: []string{"X", "Y", "Z"}, Inputs: []float64{1, 2, 3}},
		{Tokens: []string{"A", "C", "B"}, Inputs: []float64{1, 2, 3}}, // reversed direction
	}
	for i, h := range cases {
		wh := &WarmHints{}
		if !wh.Stage([]WarmHint{h}) {
			continue // dropped at staging — also fine
		}
		if prev := wh.take([]*strategy.Loop{l}); prev != nil && prev[0] != nil {
			t.Fatalf("case %d: garbage hint %+v produced a warm start", i, h)
		}
	}
	// Shape garbage is never even staged.
	if (&WarmHints{}).Stage([]WarmHint{{}, {Tokens: []string{"A"}, Inputs: []float64{1, 2}}}) {
		t.Fatal("degenerate hints were staged")
	}
}

func TestWarmHintsNilSafe(t *testing.T) {
	var wh *WarmHints
	if prev := wh.take([]*strategy.Loop{hintLoop(t, []string{"A", "B", "C"})}); prev != nil {
		t.Fatal("nil WarmHints returned hints")
	}
	if (&WarmHints{}).Stage(nil) {
		t.Fatal("empty hint list was staged")
	}
}

func TestMetricsPrimeDirtiness(t *testing.T) {
	m := NewMetrics()
	m.PrimeDirtiness(map[string]float64{
		"P0":  0.75,
		"P1":  2.5,  // out of range: ignored
		"P2":  -0.1, // out of range: ignored
		"P99": 0.5,  // unknown pool: ignored
	})
	pools := make([]*amm.Pool, 3)
	for i, id := range []string{"P0", "P1", "P2"} {
		p, err := amm.NewPool(id, "A", "B", 1000, 1000, 0.003)
		if err != nil {
			t.Fatal(err)
		}
		pools[i] = p
	}
	m.capture(pools, 1)
	d := m.PoolDirtiness()
	if d["P0"] < 0.5 || d["P0"] > 0.75 {
		t.Fatalf("P0 prior = %v, want ~0.75 decaying", d["P0"])
	}
	if d["P1"] != 0 || d["P2"] != 0 {
		t.Fatalf("out-of-range priors leaked: %v", d)
	}
	if _, ok := d["P99"]; ok {
		t.Fatalf("unknown pool appeared: %v", d)
	}
	// Take-once: a later capture with a new pool set starts cold.
	p3, err := amm.NewPool("P3", "A", "B", 1000, 1000, 0.003)
	if err != nil {
		t.Fatal(err)
	}
	m.capture(append(pools, p3), 1)
	if v := m.PoolDirtiness()["P3"]; v != 0 {
		t.Fatalf("post-priming capture primed P3 = %v", v)
	}
}

func TestEMAPrimeDecays(t *testing.T) {
	e := telemetry.NewEMA(DirtinessTau)
	now := time.Now()
	e.Prime(0.8, now)
	if v := e.DecayedValue(now); math.Abs(v-0.8) > 1e-9 {
		t.Fatalf("primed value = %v, want 0.8", v)
	}
	// One time constant later the prior has decayed by e^-1.
	later := now.Add(DirtinessTau)
	want := 0.8 * math.Exp(-1)
	if v := e.DecayedValue(later); math.Abs(v-want) > 1e-6 {
		t.Fatalf("decayed prior = %v, want %v", v, want)
	}
	// Non-finite priors are ignored.
	e2 := telemetry.NewEMA(DirtinessTau)
	e2.Prime(math.NaN(), now)
	e2.Prime(math.Inf(1), now)
	if v := e2.DecayedValue(now); v != 0 {
		t.Fatalf("non-finite prime leaked: %v", v)
	}
}
