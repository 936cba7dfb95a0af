package arbloop_test

import (
	"context"
	"fmt"
	"log"

	"arbloop"
)

// ExampleNewScanner runs a whole-market scan over the Section V pools:
// sources in, ranked monetized profits out.
func ExampleNewScanner() {
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
	sc, err := arbloop.NewScanner(
		arbloop.StaticPools{p1, p2, p3},
		arbloop.NewStaticOracle(map[string]float64{"X": 2, "Y": 10.2, "Z": 20}),
		arbloop.WithStrategy(arbloop.MaxMaxStrategy{}),
		arbloop.WithParallelism(2),
	)
	if err != nil {
		log.Fatal(err)
	}
	report, err := sc.Scan(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range report.Results {
		fmt.Printf("%s: start %s, $%.1f\n", r.Loop, r.Result.StartToken, r.Result.Monetized)
	}
	// Output: X→Y→Z→X: start Z, $205.6
}

// ExampleMaxMax reproduces the paper's Section V example: the best start
// token is Z with a monetized profit of ≈ 205.6$.
func ExampleMaxMax() {
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

	best, err := arbloop.MaxMax(loop, arbloop.PriceMap{"X": 2, "Y": 10.2, "Z": 20})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("start %s: $%.1f\n", best.StartToken, best.Monetized)
	// Output: start Z: $205.6
}

// ExampleConvex shows the convex strategy keeping profit in two tokens at
// once, beating the best single-start plan.
func ExampleConvex() {
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

	res, err := arbloop.Convex(loop, arbloop.PriceMap{"X": 2, "Y": 10.2, "Z": 20})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("$%.1f keeping %.1f Y and %.1f Z\n", res.Monetized, res.NetTokens["Y"], res.NetTokens["Z"])
	// Output: $206.1 keeping 5.0 Y and 7.8 Z
}

// ExamplePool_SpotPrice shows the arbitrage-loop condition: the product
// of fee-adjusted spot prices along a loop exceeding 1.
func ExamplePool_SpotPrice() {
	pool, err := arbloop.NewPool("p", "WETH", "USDC", 1_000, 1_650_000, arbloop.DefaultFee)
	if err != nil {
		log.Fatal(err)
	}
	price, err := pool.SpotPrice("WETH")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("1 WETH ≈ %.1f USDC after fees\n", price)
	// Output: 1 WETH ≈ 1645.0 USDC after fees
}
