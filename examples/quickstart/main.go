// Quickstart: build the paper's three-pool arbitrage loop, run all four
// strategies, and finish with a whole-market Scanner pass — the
// five-minute tour of the public API.
package main

import (
	"context"
	"fmt"
	"log"

	"arbloop"
)

func main() {
	// The Section V example: three CPMM pools forming the loop X→Y→Z→X.
	p1, err := arbloop.NewPool("p1", "X", "Y", 100, 200, arbloop.DefaultFee)
	if err != nil {
		log.Fatal(err)
	}
	p2, err := arbloop.NewPool("p2", "Y", "Z", 300, 200, arbloop.DefaultFee)
	if err != nil {
		log.Fatal(err)
	}
	p3, err := arbloop.NewPool("p3", "Z", "X", 200, 400, arbloop.DefaultFee)
	if err != nil {
		log.Fatal(err)
	}
	loop, err := arbloop.NewLoop([]arbloop.Hop{
		{Pool: p1, TokenIn: "X"},
		{Pool: p2, TokenIn: "Y"},
		{Pool: p3, TokenIn: "Z"},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Is it an arbitrage loop? (Π fee-adjusted spot prices > 1.)
	prod, err := loop.PriceProduct()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loop %s: price product %.4f (arbitrage: %v)\n\n", loop, prod, prod > 1)

	// CEX prices monetize the profit.
	prices := arbloop.PriceMap{"X": 2, "Y": 10.2, "Z": 20}

	// Traditional starts, one per token.
	all, err := arbloop.TraditionalAll(loop, prices)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range all {
		fmt.Printf("Traditional(%s): input %7.2f → profit %6.2f %-2s = $%7.2f\n",
			r.StartToken, r.Input, r.NetTokens[r.StartToken], r.StartToken, r.Monetized)
	}

	// MaxPrice and MaxMax heuristics.
	mp, err := arbloop.MaxPrice(loop, prices)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MaxPrice:        starts from %s (highest CEX price) = $%.2f\n", mp.StartToken, mp.Monetized)
	mm, err := arbloop.MaxMax(loop, prices)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MaxMax:          best start %s = $%.2f\n", mm.StartToken, mm.Monetized)

	// The convex relaxation (paper problem 8) can keep profit in several
	// tokens at once and is provably ≥ MaxMax.
	cv, err := arbloop.Convex(loop, prices)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Convex:          $%.2f, net tokens: X=%.2f Y=%.2f Z=%.2f\n",
		cv.Monetized, cv.NetTokens["X"], cv.NetTokens["Y"], cv.NetTokens["Z"])

	// Whole-market scan: the same three pools behind the source
	// interfaces, detection plus parallel per-loop optimization in one
	// call. On a real market this fans hundreds of loops out over a
	// worker pool; here it finds our single loop.
	sc, err := arbloop.NewScanner(
		arbloop.StaticPools{p1, p2, p3},
		arbloop.NewStaticOracle(prices),
		arbloop.WithStrategy(arbloop.MaxMaxStrategy{}),
		arbloop.WithParallelism(4),
	)
	if err != nil {
		log.Fatal(err)
	}
	report, err := sc.Scan(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nScanner: %d loop(s) detected among %d pools\n", report.LoopsDetected, report.Pools)
	for _, r := range report.Results {
		fmt.Printf("  %s → $%.2f via %s from %s\n",
			r.Loop, r.Result.Monetized, r.Result.Strategy, r.Result.StartToken)
	}
}
