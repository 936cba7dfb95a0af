package scan

import (
	"context"
	"errors"
	"maps"
	"math/rand"
	"testing"

	"arbloop/internal/amm"
	"arbloop/internal/cex"
	"arbloop/internal/cycles"
	"arbloop/internal/graph"
	"arbloop/internal/source"
	"arbloop/internal/strategy"
)

// dropPrices answers like src but leaves out the tokens in drop.
type dropPrices struct {
	src  source.PriceSource
	drop map[string]bool
}

func (d dropPrices) Prices(ctx context.Context, symbols []string) (map[string]float64, error) {
	m, err := d.src.Prices(ctx, symbols)
	if err != nil {
		return nil, err
	}
	for tok := range d.drop {
		delete(m, tok)
	}
	return m, nil
}

// switchPrices answers from src, which a test swaps between scans: a
// price feed that changes under a captured baseline.
type switchPrices struct{ src source.PriceSource }

func (s *switchPrices) Prices(ctx context.Context, symbols []string) (map[string]float64, error) {
	return s.src.Prices(ctx, symbols)
}

// streamErrors returns, by loopKey, the error text of every loop a full
// scan's Optimize calls fail on.
func streamErrors(t *testing.T, pools []*amm.Pool, prices source.PriceSource, cfg Config) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for r := range Stream(context.Background(), rebuild(t, pools), prices, cfg) {
		if r.Loop == nil {
			t.Fatalf("stream: %v", r.Err)
		}
		if r.Err != nil {
			out[loopKey(r.Loop)] = r.Err.Error()
		}
	}
	return out
}

// deltaErrors returns, keyed as streamErrors keys them, the error text of
// every failed loop in the engine's committed baseline: the errors its
// delta scans produced.
func deltaErrors(d *Delta) map[string]string {
	d.mu.Lock()
	b := d.base
	d.mu.Unlock()
	pools := b.top.skel.Pools()
	out := make(map[string]string)
	for ci, e := range b.state.entries {
		if e.orient != orientNone && e.err != nil {
			out[loopKey(strategy.LoopFromHops(pools, b.top.hops(ci, e.orient), b.top.tokens))] = e.err.Error()
		}
	}
	return out
}

// tokenOnSomeLoops returns a token on some, but not all, of a full
// scan's ranked loops: the token of the best loop that the most
// profitable loop without it lacks.
func tokenOnSomeLoops(t *testing.T, rep Report) string {
	t.Helper()
	best := rep.Results[0].Loop
	for _, r := range rep.Results[1:] {
		for i := range best.Len() {
			if tok := best.Token(i); !r.Loop.HasToken(tok) {
				return tok
			}
		}
	}
	t.Fatal("every ranked loop holds every token of the best loop")
	return ""
}

// enumeratingToken returns a token that, priced 0, leaves Convex
// enumerating the faces of a loop through it: the solve that skips the
// faces an unpriced token would make unbounded.
func enumeratingToken(t *testing.T, rep Report, prices map[string]float64) string {
	t.Helper()
	for _, r := range rep.Results {
		for i := range r.Loop.Len() {
			zeroed := maps.Clone(prices)
			zeroed[r.Loop.Token(i)] = 0
			before := strategy.Telemetry().Enumerations.Load()
			if _, err := strategy.Convex(r.Loop, zeroed); err != nil {
				t.Fatal(err)
			}
			if strategy.Telemetry().Enumerations.Load() > before {
				return r.Loop.Token(i)
			}
		}
	}
	t.Fatal("no loop enumerates with any one of its tokens priced 0")
	return ""
}

// TestRunDeltaIndexPathCases covers what the delta scan's index path
// handles itself rather than through Optimize: a price the source leaves
// out, a price of 0, a start token on only some loops, and a price that
// was 0 and then vanished. Over rounds of random dirty subsets each
// delta report must equal a full scan's, and every loop the delta
// baseline holds as failed must fail in a full scan with the same error
// text, and no other.
func TestRunDeltaIndexPathCases(t *testing.T) {
	pools, prices := deltaMarket(t)
	static := cex.NewStatic(prices)
	ctx := context.Background()
	len34 := Config{Strategy: strategy.ConvexStrategy{}, MinLen: 3, MaxLen: 4, TopK: 10}
	all, err := Run(ctx, pools, static, Config{Strategy: strategy.ConvexStrategy{}, MinLen: 3, MaxLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	partial := tokenOnSomeLoops(t, all)
	zeroed := maps.Clone(prices)
	zeroed[enumeratingToken(t, all, prices)] = 0
	zeroPartial := maps.Clone(prices)
	zeroPartial[partial] = 0

	for _, tc := range []struct {
		name string
		cfg  Config
		// capture prices the first scan, scans every later one.
		capture, scans source.PriceSource
		// failing is the error every failed loop wraps (nil: none fail).
		failing error
	}{
		{"missing price", len34, static, dropPrices{src: static, drop: map[string]bool{partial: true}}, strategy.ErrMissingPrice},
		{"missing price at capture", len34, dropPrices{src: static, drop: map[string]bool{partial: true}}, dropPrices{src: static, drop: map[string]bool{partial: true}}, strategy.ErrMissingPrice},
		{"zero price", len34, cex.NewStatic(zeroed), cex.NewStatic(zeroed), nil},
		{"zero price, MaxMax", Config{Strategy: strategy.MaxMaxStrategy{}, TopK: 10}, cex.NewStatic(zeroed), cex.NewStatic(zeroed), nil},
		{"zero price, then none", len34, cex.NewStatic(zeroPartial), dropPrices{src: cex.NewStatic(zeroPartial), drop: map[string]bool{partial: true}}, strategy.ErrMissingPrice},
		{"start on some loops", Config{Strategy: strategy.TraditionalStrategy{Start: partial}, TopK: 10}, static, static, strategy.ErrUnknownStart},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			feed := &switchPrices{src: tc.capture}
			st := NewDelta(tc.cfg)
			if _, err := st.Scan(ctx, pools, nil, feed); err != nil {
				t.Fatal(err)
			}
			feed.src = tc.scans
			state := pools
			sawFailed := false
			for round := 0; round < 6; round++ {
				if round > 0 {
					state = perturb(t, rng, state, 1+rng.Intn(len(state)/10))
				}
				delta, err := st.Scan(ctx, state, nil, feed)
				if err != nil {
					t.Fatal(err)
				}
				full, err := Run(ctx, rebuild(t, state), feed, tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				requireSameReport(t, delta, full)
				want := streamErrors(t, state, feed, tc.cfg)
				got := deltaErrors(st)
				if !maps.Equal(got, want) {
					t.Fatalf("round %d: delta baseline fails %d loops, a full scan %d:\ndelta %v\nfull  %v", round, len(got), len(want), got, want)
				}
				if len(got) != delta.Failed {
					t.Fatalf("round %d: baseline holds %d failed loops, report says %d", round, len(got), delta.Failed)
				}
				if tc.failing == nil && len(got) > 0 {
					t.Fatalf("round %d: loops failed: %v", round, got)
				}
				if delta.Failed > 0 {
					sawFailed = true
					if delta.Failed == delta.LoopsDetected {
						t.Fatalf("round %d: every loop failed", round)
					}
				}
			}
			if tc.failing != nil && !sawFailed {
				t.Errorf("no loop failed with %v", tc.failing)
			}
			if tc.failing != nil {
				for r := range Stream(ctx, rebuild(t, state), feed, tc.cfg) {
					if r.Err != nil && !errors.Is(r.Err, tc.failing) {
						t.Fatalf("%s fails with %v, want %v", r.Loop, r.Err, tc.failing)
					}
				}
			}
		})
	}
}

// TestRunDeltaAllLoopsFailingMatchesRun: when every loop fails, a delta
// scan fails with exactly the error Run returns over the same state,
// naming the same first loop and cause.
func TestRunDeltaAllLoopsFailingMatchesRun(t *testing.T) {
	pools, prices := deltaMarket(t)
	ctx := context.Background()
	none := make(map[string]bool, len(prices))
	for tok := range prices {
		none[tok] = true
	}
	for _, cfg := range []Config{
		{Strategy: strategy.ConvexStrategy{}, MinLen: 4, MaxLen: 4, TopK: 20},
		{Strategy: strategy.MaxMaxStrategy{}},
	} {
		feed := &switchPrices{src: cex.NewStatic(prices)}
		st := NewDelta(cfg)
		if _, err := st.Scan(ctx, pools, nil, feed); err != nil {
			t.Fatal(err)
		}
		feed.src = dropPrices{src: cex.NewStatic(prices), drop: none}
		state := perturb(t, rand.New(rand.NewSource(3)), pools, 5)
		_, deltaErr := st.Scan(ctx, state, nil, feed)
		_, runErr := Run(ctx, rebuild(t, state), feed, cfg)
		if deltaErr == nil || runErr == nil {
			t.Fatalf("%s: delta err %v, Run err %v; both must fail", cfg.Strategy.Name(), deltaErr, runErr)
		}
		if deltaErr.Error() != runErr.Error() {
			t.Errorf("%s: delta scan fails with\n  %v\nRun with\n  %v", cfg.Strategy.Name(), deltaErr, runErr)
		}
		if !errors.Is(deltaErr, strategy.ErrMissingPrice) {
			t.Errorf("%s: %v does not wrap ErrMissingPrice", cfg.Strategy.Name(), deltaErr)
		}
	}
}

// TestCompileHopsAgreesWithNewLoop: the index validator accepts exactly
// the traversals strategy.NewLoop accepts, fails the rest with NewLoop's
// error, and a compiled program builds the Loop NewLoop builds. It runs
// every enumerated cycle of the §VI market at lengths 2–4, in both
// orientations, and hand-built traversals NewLoop rejects.
func TestCompileHopsAgreesWithNewLoop(t *testing.T) {
	pools, _ := deltaMarket(t)
	g, top, _, err := enumerateTopology(Canonicalize(pools), Config{MinLen: 2, MaxLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(top.cycles) < 1000 {
		t.Fatalf("only %d cycles enumerated", len(top.cycles))
	}
	canon := g.Pools()
	for ci, c := range top.cycles {
		for _, d := range []cycles.Directed{c.Forward(), c.Reverse()} {
			want, err := strategy.NewLoop(graphHops(g, d.Nodes, d.Pools))
			if err != nil {
				t.Fatalf("cycle %d %v: NewLoop: %v", ci, d, err)
			}
			hops := make([]strategy.HopIndex, d.Len())
			if err := compileHops(g, d.Nodes, d.Pools, hops); err != nil {
				t.Fatalf("cycle %d %v: compileHops: %v", ci, d, err)
			}
			if got := strategy.LoopFromHops(canon, hops, top.tokens); loopKey(got) != loopKey(want) {
				t.Fatalf("cycle %d %v: compiled loop %s, NewLoop %s", ci, d, loopKey(got), loopKey(want))
			}
		}
		// The topology's own programs are the two orientations compiled.
		for _, o := range []int8{orientForward, orientReverse} {
			d := c.Forward()
			if o == orientReverse {
				d = c.Reverse()
			}
			want, _ := strategy.NewLoop(graphHops(g, d.Nodes, d.Pools))
			if got := strategy.LoopFromHops(canon, top.hops(ci, o), top.tokens); loopKey(got) != loopKey(want) {
				t.Fatalf("cycle %d orientation %d: program builds %s, want %s", ci, o, loopKey(got), loopKey(want))
			}
		}
	}

	// A, B, C with two parallel A–B pools.
	small, err := graph.Build([]*amm.Pool{
		amm.MustNewPool("ab1", "A", "B", 100, 200, amm.DefaultFee),
		amm.MustNewPool("ab2", "A", "B", 100, 200, amm.DefaultFee),
		amm.MustNewPool("bc", "B", "C", 100, 200, amm.DefaultFee),
		amm.MustNewPool("ca", "C", "A", 100, 200, amm.DefaultFee),
	})
	if err != nil {
		t.Fatal(err)
	}
	node := func(tok string) int {
		i, err := small.NodeIndex(tok)
		if err != nil {
			t.Fatal(err)
		}
		return i
	}
	const ab1, ab2, bc, ca = 0, 1, 2, 3
	A, B, C := node("A"), node("B"), node("C")
	for _, tc := range []struct {
		name  string
		nodes []int
		pools []int
		want  error // nil: valid
	}{
		{"valid", []int{A, B, C}, []int{ab1, bc, ca}, nil},
		{"valid two-hop", []int{A, B}, []int{ab1, ab2}, nil},
		{"one hop", []int{A}, []int{ab1}, strategy.ErrEmptyLoop},
		{"repeated token", []int{A, B, A, C}, []int{ab1, ab2, ca, ca}, strategy.ErrRepeatedToken},
		{"repeated pool", []int{A, B, A}, []int{ab1, ab1, ca}, strategy.ErrRepeatedPool},
		{"hop does not close", []int{A, B, C}, []int{ab1, ab2, ca}, strategy.ErrNotClosed},
		{"pool lacks token", []int{A, B, C}, []int{ab1, ca, bc}, amm.ErrUnknownToken},
	} {
		hops := make([]strategy.HopIndex, len(tc.nodes))
		got := compileHops(small, tc.nodes, tc.pools, hops)
		_, want := strategy.NewLoop(graphHops(small, tc.nodes, tc.pools))
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Errorf("%s: compileHops %v, NewLoop %v", tc.name, got, want)
		}
		if !errors.Is(want, tc.want) || (tc.want == nil) != (want == nil) {
			t.Errorf("%s: NewLoop %v, want %v: the case does not test what it names", tc.name, want, tc.want)
		}
	}
}

// TestDeltaConvexSolvesOncePerReoptimizedLoop: serving a loop never runs
// or counts its solve again. Over a capture and dirty delta scans, at
// TopK 20 and at TopK 0 (every ranked loop served), the convex solve
// counter advances by exactly the loops re-optimized — every detected
// loop is one Convex solves, because orientation and the kernel test the
// same price product.
func TestDeltaConvexSolvesOncePerReoptimizedLoop(t *testing.T) {
	pools, prices := deltaMarket(t)
	src := cex.NewStatic(prices)
	ctx := context.Background()
	for _, topK := range []int{20, 0} {
		st := NewDelta(Config{Strategy: strategy.ConvexStrategy{}, MinLen: 4, MaxLen: 4, TopK: topK})
		rng := rand.New(rand.NewSource(5))
		before := strategy.Telemetry().Solves.Load()
		reoptimized := 0
		state := pools
		for round := 0; round < 12; round++ {
			if round > 0 {
				state = perturb(t, rng, state, 10)
			}
			rep, err := st.Scan(ctx, state, nil, src)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 {
				t.Fatalf("TopK %d round %d: %d loops failed", topK, round, rep.Failed)
			}
			reoptimized += rep.LoopsReoptimized
		}
		if solves := strategy.Telemetry().Solves.Load() - before; solves != uint64(reoptimized) {
			t.Errorf("TopK %d: %d convex solves for %d re-optimized loops", topK, solves, reoptimized)
		}
	}
}

// TestDeltaConcurrentServedFormsMatchFull: a built-in strategy's loops
// get their served forms only when a report keeps them, and a scan that
// changes nothing caches them on the committed state every concurrent
// scan shares. Scanners racing over one engine — half of them on an
// unchanged market, where every served form is built on shared state,
// half on dirty ones — must each still report what a full scan of its
// own state reports.
func TestDeltaConcurrentServedFormsMatchFull(t *testing.T) {
	pools, prices := deltaMarket(t)
	src := cex.NewStatic(prices)
	ctx := context.Background()
	const scanners, states = 4, 32

	for _, cfg := range []Config{
		{Strategy: strategy.ConvexStrategy{}, MinLen: 4, MaxLen: 4, TopK: 20},
		{Strategy: strategy.MaxMaxStrategy{}, TopK: 5},
	} {
		rng := rand.New(rand.NewSource(17))
		state := make([][]*amm.Pool, states)
		for i := range state {
			if i%2 == 0 {
				state[i] = rebuild(t, pools)
			} else {
				state[i] = perturb(t, rng, pools, 1+rng.Intn(10))
			}
		}
		st := NewDelta(cfg)
		if _, err := st.Scan(ctx, pools, nil, src); err != nil {
			t.Fatal(err)
		}
		requireConcurrentScansMatchFull(t, st, cfg, src, state, scanners)
	}
}
