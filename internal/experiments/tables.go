package experiments

import (
	"fmt"
	"time"

	"arbloop/internal/convexopt"
	"arbloop/internal/cycles"
	"arbloop/internal/market"
	"arbloop/internal/strategy"
)

// T1Start is one per-start row of the Section V example.
type T1Start struct {
	Start     string
	Input     float64
	Profit    float64 // in start-token units
	Monetized float64 // USD
}

// T1Result reproduces every scalar of the Section V worked example.
type T1Result struct {
	Starts          []T1Start
	MaxMaxStart     string
	MaxMaxMonetized float64
	ConvexMonetized float64
	ConvexInputs    []float64
	ConvexOutputs   []float64
	ConvexNet       map[string]float64
}

// TableT1 recomputes the Section V example end to end. Paper values:
// starts (27.0→16.8 X, 31.5→19.7 Y, 16.4→10.3 Z); monetized (33.7,
// 201.1, 205.6); MaxMax 205.6 from Z; Convex 206.1 with plan
// 31.3 X→47.6 Y, 42.6 Y→24.8 Z, 17.1 Z→31.3 X and profit ≈ 5 Y + 7.7 Z.
func TableT1() (T1Result, error) {
	loop, err := PaperExampleLoop()
	if err != nil {
		return T1Result{}, err
	}
	prices := PaperExamplePrices()

	var out T1Result
	all, err := strategy.TraditionalAll(loop, prices)
	if err != nil {
		return T1Result{}, err
	}
	for _, r := range all {
		out.Starts = append(out.Starts, T1Start{
			Start:     r.StartToken,
			Input:     r.Input,
			Profit:    r.NetTokens[r.StartToken],
			Monetized: r.Monetized,
		})
	}
	mm, err := strategy.MaxMax(loop, prices)
	if err != nil {
		return T1Result{}, err
	}
	out.MaxMaxStart = mm.StartToken
	out.MaxMaxMonetized = mm.Monetized

	cv, err := strategy.Convex(loop, prices)
	if err != nil {
		return T1Result{}, err
	}
	out.ConvexMonetized = cv.Monetized
	out.ConvexInputs = cv.Plan.Inputs
	out.ConvexOutputs = cv.Plan.Outputs
	out.ConvexNet = cv.NetTokens
	return out, nil
}

// T2Result reports the §VI graph statistics.
type T2Result struct {
	Tokens        int
	Pools         int
	CyclesLen3    int
	ArbLoopsLen3  int
	CyclesLen4    int
	ArbLoopsLen4  int
	TotalTVLUSD   float64
	FilteredByTVL int
}

// TableT2 generates the default snapshot, applies the paper's filters,
// and counts loops. Paper values: 51 tokens, 208 pools, 123 arbitrage
// loops of length 3.
func TableT2(cfg market.GeneratorConfig) (T2Result, error) {
	snap, err := market.Generate(cfg)
	if err != nil {
		return T2Result{}, err
	}
	filtered := snap.FilterPools(30_000, 100)
	g, err := filtered.BuildGraph()
	if err != nil {
		return T2Result{}, err
	}
	var out T2Result
	out.Tokens = g.NumNodes()
	out.Pools = g.NumEdges()
	out.FilteredByTVL = len(snap.Pools) - len(filtered.Pools)
	out.TotalTVLUSD = filtered.Stats().TotalTVL

	c3, err := cycles.Enumerate(g, 3, 3, 0)
	if err != nil {
		return T2Result{}, err
	}
	a3, err := cycles.ArbitrageLoops(g, c3)
	if err != nil {
		return T2Result{}, err
	}
	out.CyclesLen3 = len(c3)
	out.ArbLoopsLen3 = len(a3)

	c4, err := cycles.Enumerate(g, 4, 4, 0)
	if err != nil {
		return T2Result{}, err
	}
	a4, err := cycles.ArbitrageLoops(g, c4)
	if err != nil {
		return T2Result{}, err
	}
	out.CyclesLen4 = len(c4)
	out.ArbLoopsLen4 = len(a4)
	return out, nil
}

// T3Row is the measured runtime of each strategy at one loop length.
// Every cell is the fastest of TableT3's repeats, not their mean: one
// preemption during a microsecond-scale MaxMax call would otherwise
// dominate the cell.
type T3Row struct {
	Length int
	// MaxMaxClosed uses the closed-form optimum per start.
	MaxMaxClosed time.Duration
	// MaxMaxBisect solves F'(Δ)=1 by bisection per start, the method the
	// paper describes (§III).
	MaxMaxBisect time.Duration
	// Barrier is the barrier-method solve of problem (8) the paper times
	// (convexopt.Minimize on the staged problem, from StageBarrier's
	// interior start).
	Barrier time.Duration
	// Convex is the ConvexOptimization strategy: the exact solve.
	Convex time.Duration
}

// TableT3 measures strategy runtime across loop lengths (paper §VII: for
// a loop of length 10 MaxMax needs milliseconds while a generic convex
// solve needs seconds; our hand-rolled barrier solver is faster in
// absolute terms but the relative growth must reproduce). The Convex
// column times the strategy itself, whose exact solve needs no barrier.
// Each cell times repeats calls and keeps the fastest.
func TableT3(lengths []int, repeats int) ([]T3Row, error) {
	if len(lengths) == 0 {
		lengths = []int{3, 4, 5, 6, 8, 10, 12}
	}
	if repeats <= 0 {
		repeats = 5
	}
	rows := make([]T3Row, 0, len(lengths))
	for _, n := range lengths {
		loop, prices, err := SyntheticLoop(n)
		if err != nil {
			return nil, err
		}
		row := T3Row{Length: n}

		row.MaxMaxClosed, err = fastestOf(repeats, func() error {
			_, err := strategy.MaxMax(loop, prices)
			return err
		})
		if err != nil {
			return nil, err
		}

		row.MaxMaxBisect, err = fastestOf(repeats, func() error {
			for off := 0; off < n; off++ {
				if _, err := strategy.OptimalInputBisection(loop.Rotate(off)); err != nil {
					return fmt.Errorf("experiments: bisection len %d: %w", n, err)
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}

		p, x0, err := StageBarrier(loop, prices)
		if err != nil {
			return nil, err
		}
		if x0 == nil {
			return nil, fmt.Errorf("experiments: length-%d synthetic loop has no interior start", n)
		}
		prob := p.Generic()
		row.Barrier, err = fastestOf(repeats, func() error {
			if _, err := convexopt.Minimize(prob, x0, BarrierOptions); err != nil {
				return fmt.Errorf("experiments: barrier len %d: %w", n, err)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}

		row.Convex, err = fastestOf(repeats, func() error {
			if _, err := strategy.Convex(loop, prices); err != nil {
				return fmt.Errorf("experiments: convex len %d: %w", n, err)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}

		rows = append(rows, row)
	}
	return rows, nil
}

// BarrierOptions are the barrier-method parameters of TableT3's Barrier
// column and the barrier benchmarks: the solver defaults with a higher
// Newton cap per centering.
var BarrierOptions = convexopt.Options{MaxNewton: 300}

// StageBarrier stages the loop's problem (8) for the barrier method: the
// coefficients Convex solves (strategy.StageProblem) and a strictly
// interior start, the MaxMax plan shrunk uniformly until every flow
// constraint is slack (F strictly concave with F(0) = 0 gives
// F(c·a) > c·F(a) for 0 < c < 1). x0 is nil when no shrink lands inside:
// a loop whose price product is so close to 1 that float64 has no
// interior.
func StageBarrier(loop *strategy.Loop, prices strategy.PriceMap) (p *convexopt.LoopProblem, x0 []float64, err error) {
	p = new(convexopt.LoopProblem)
	if err := strategy.StageProblem(p, loop, prices); err != nil {
		return nil, nil, err
	}
	mm, err := strategy.MaxMax(loop, prices)
	if err != nil {
		return nil, nil, err
	}
	n := loop.Len()
	offset := -1
	for i := 0; i < n; i++ {
		if loop.Token(i) == mm.StartToken {
			offset = i
			break
		}
	}
	if offset < 0 || !(mm.Input > 0) {
		return p, nil, nil
	}
	x0 = make([]float64, n)
	for _, eta := range []float64{0.05, 0.15, 0.4, 0.75} {
		for i := 0; i < n; i++ {
			x0[(i+offset)%n] = (1 - eta) * mm.Plan.Inputs[i]
		}
		if p.Interior(x0) {
			return p, x0, nil
		}
	}
	return p, nil, nil
}

// fastestOf runs f repeats times and returns the shortest run.
func fastestOf(repeats int, f func() error) (time.Duration, error) {
	var best time.Duration
	for r := 0; r < repeats; r++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		if d := time.Since(start); r == 0 || d < best {
			best = d
		}
	}
	return best, nil
}
