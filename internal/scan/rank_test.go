package scan

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"arbloop/internal/graph"
	"arbloop/internal/strategy"
)

// referenceRanking is the ranking assembleReport performed before it
// ranked keys, kept as the oracle: filter, sort whole Results, truncate
// to TopK.
func referenceRanking(all []Result, minProfit float64, topK int) []Result {
	results := make([]Result, 0, len(all))
	for _, r := range all {
		if r.Err != nil || r.Result.Monetized < minProfit {
			continue
		}
		results = append(results, r)
	}
	slices.SortFunc(results, func(a, b Result) int {
		if a.Result.Monetized != b.Result.Monetized {
			if a.Result.Monetized > b.Result.Monetized {
				return -1
			}
			return 1
		}
		return a.Index - b.Index
	})
	if topK > 0 && len(results) > topK {
		results = results[:topK]
	}
	return results
}

// randomResults builds a per-loop result set of n loops whose profits
// come mostly from a few tied values (±0 among them), with about one
// loop in eight failed. It also returns the distinct profits it used.
func randomResults(rng *rand.Rand, n int) ([]Result, []float64) {
	ties := []float64{-2, math.Copysign(0, -1), 0, 0.5, 1, 3, 3.25}
	all := make([]Result, n)
	for i := range all {
		loop := new(strategy.Loop)
		if rng.Intn(8) == 0 {
			all[i] = Result{Index: i, Loop: loop, Err: errors.New("loop failed")}
			continue
		}
		profit := ties[rng.Intn(len(ties))]
		if rng.Intn(4) == 0 {
			profit = 10 * rng.NormFloat64()
			ties = append(ties, profit)
		}
		all[i] = Result{Index: i, Loop: loop, Result: strategy.Result{
			Strategy:   "Test",
			Loop:       loop,
			StartToken: "T",
			Input:      float64(i),
			Plan:       strategy.TradePlan{Inputs: []float64{float64(i)}, Outputs: []float64{profit}},
			NetTokens:  map[string]float64{"T": profit},
			Monetized:  profit,
		}}
	}
	return all, ties
}

// TestAssembleReportMatchesReferenceRanking: ranking (profit, index) keys
// and keeping the best TopK by insertion must produce exactly the
// parent's whole-Result sort, element by element, for every TopK and
// MinProfitUSD, with many tied profits and failed loops in the input.
func TestAssembleReportMatchesReferenceRanking(t *testing.T) {
	g, err := graph.Build(paperPools(t))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(19))
	var keys []rankKey // shared across cases, as the delta scratch shares it
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(301)
		all, profits := randomResults(rng, n)
		failed := 0
		for _, r := range all {
			if r.Err != nil {
				failed++
			}
		}
		d := &detection{graph: g, top: &topology{}, loops: make([]*strategy.Loop, n)}
		mins := []float64{-100, profits[rng.Intn(len(profits))], 0, 100}
		for _, minProfit := range mins {
			for _, topK := range []int{0, 1, 5, n - 1, n, n + 5} {
				cfg := Config{MinProfitUSD: minProfit, TopK: topK}.Resolve()
				rep, err := assembleReport(d, cfg, all, &keys, n, 0)
				if n > 0 && failed == n {
					if err == nil {
						t.Fatalf("trial %d: every loop failed but no error", trial)
					}
					continue
				}
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if rep.Failed != failed {
					t.Fatalf("trial %d: Failed = %d, want %d", trial, rep.Failed, failed)
				}
				if cap(rep.Results) != len(rep.Results) {
					t.Fatalf("trial %d (n=%d min=%g topK=%d): cap(Results) = %d, len %d",
						trial, n, minProfit, topK, cap(rep.Results), len(rep.Results))
				}
				want := referenceRanking(all, minProfit, topK)
				if len(rep.Results) != len(want) {
					t.Fatalf("trial %d (n=%d min=%g topK=%d): %d results, reference %d",
						trial, n, minProfit, topK, len(rep.Results), len(want))
				}
				for i, got := range rep.Results {
					w := want[i]
					if got.Index != w.Index || got.Loop != w.Loop || got.Err != nil ||
						!reflect.DeepEqual(got.Result, w.Result) ||
						math.Float64bits(got.Result.Monetized) != math.Float64bits(w.Result.Monetized) {
						t.Fatalf("trial %d (n=%d min=%g topK=%d) rank %d: got index %d ($%g), reference index %d ($%g)",
							trial, n, minProfit, topK, i, got.Index, got.Result.Monetized, w.Index, w.Result.Monetized)
					}
				}
			}
		}
	}
}
